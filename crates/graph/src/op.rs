//! The operator vocabulary of MAGIS computation graphs.
//!
//! Every operator knows how to
//! * infer its output shape ([`OpKind::infer`]),
//! * report its arithmetic work ([`OpKind::flops`]),
//! * describe how its input dimensions relate to its output dimensions
//!   and reduce axes ([`OpKind::input_dim_links`]) — the raw material for
//!   the Dimension Graph of §4.1 of the paper,
//! * say which of its output dimensions may be split by a fission
//!   transformation ([`OpKind::splittable_output_dims`]).
//!
//! The set covers everything needed to express the paper's workloads
//! (ResNet-50, BERT, ViT, U-Net, U-Net++, GPT-Neo, BTLM) in both
//! inference and training form, plus the bookkeeping operators MAGIS
//! introduces: `Store`/`Load` for swapping (§5.2) and
//! `PartSlice`/`Merge` for the fission-overlay representation (§4.3).

use crate::tensor::{DType, Shape, TensorMeta};
use std::borrow::Borrow;
use std::fmt;

/// Role of a graph input node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// Activations: batch data, token ids, images.
    Activation,
    /// Trainable parameters. Excluded from the Dimension Graph (§4.2:
    /// weight inputs are shared, not sliced, by fission).
    Weight,
    /// Supervision targets.
    Label,
}

/// Elementwise unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    Relu,
    Gelu,
    Tanh,
    Sigmoid,
    Exp,
    Sqrt,
    Neg,
    /// Dropout modelled as a deterministic elementwise op (mask folded in).
    Dropout,
}

impl UnaryKind {
    /// FLOPs per element (rough kernel cost weights).
    fn flops_per_element(self) -> f64 {
        match self {
            UnaryKind::Relu | UnaryKind::Neg => 1.0,
            UnaryKind::Sqrt | UnaryKind::Dropout => 2.0,
            UnaryKind::Exp | UnaryKind::Sigmoid => 4.0,
            UnaryKind::Tanh => 6.0,
            UnaryKind::Gelu => 10.0,
        }
    }
}

/// Backward counterparts of [`UnaryKind`]; binary `(x_or_y, dy) -> dx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryGradKind {
    Relu,
    Gelu,
    Tanh,
    Sigmoid,
    Dropout,
}

/// Elementwise binary operators with NumPy-style broadcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    Add,
    Sub,
    Mul,
    Div,
    Max,
}

/// Reduction flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    Sum,
    Mean,
    Max,
}

/// How a fission [`OpKind::Merge`] node combines the split parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeKind {
    /// Concatenate part outputs along the split axis.
    Concat,
    /// Sum part outputs (used when the split dimension is a reduce axis
    /// of the output, e.g. a weight gradient; Fig. 5 of the paper).
    Sum,
}

/// Pooling flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    Max,
    Avg,
}

/// Attributes of a 2-D convolution (NCHW activations, OIHW weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dAttrs {
    /// Stride along (H, W).
    pub stride: (u64, u64),
    /// Zero padding along (H, W).
    pub padding: (u64, u64),
}

impl Conv2dAttrs {
    /// Unit-stride convolution with the given symmetric padding.
    pub fn same(padding: u64) -> Self {
        Conv2dAttrs { stride: (1, 1), padding: (padding, padding) }
    }

    /// Strided convolution with symmetric padding.
    pub fn strided(stride: u64, padding: u64) -> Self {
        Conv2dAttrs { stride: (stride, stride), padding: (padding, padding) }
    }

    fn out_hw(&self, h: u64, w: u64, kh: u64, kw: u64) -> Result<(u64, u64), OpError> {
        let padded = |x: u64, pad: u64| {
            pad.checked_mul(2)
                .and_then(|p| p.checked_add(x))
                .ok_or(OpError::BadAttr("padding overflows the extent"))
        };
        let oh = window_extent(padded(h, self.padding.0)?, kh, self.stride.0)?;
        let ow = window_extent(padded(w, self.padding.1)?, kw, self.stride.1)?;
        Ok((oh, ow))
    }
}

/// Output extent of a window of `k` sliding over `x` (padding included)
/// at `stride`. Attributes come from records, so the arithmetic is
/// checked: a zero stride is a typed error, not a division by zero.
fn window_extent(x: u64, k: u64, stride: u64) -> Result<u64, OpError> {
    let span = x.checked_sub(k).ok_or(OpError::InvalidWindow)?;
    Ok(span.checked_div(stride).ok_or(OpError::BadAttr("window stride must be positive"))? + 1)
}

/// Attributes of a 2-D pooling operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pool2dAttrs {
    pub kind: PoolKind,
    /// Window along (H, W).
    pub kernel: (u64, u64),
    /// Stride along (H, W).
    pub stride: (u64, u64),
}

impl Pool2dAttrs {
    /// Square window pooling with stride equal to the window.
    pub fn square(kind: PoolKind, k: u64) -> Self {
        Pool2dAttrs { kind, kernel: (k, k), stride: (k, k) }
    }
}

/// How one input dimension of an operator relates to the operator's
/// output: the edge labels of the Dimension Graph (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimLink {
    /// The input dimension and output dimension `j` (0-based) index the
    /// same spatial axis: `(⟨u,i⟩, ⟨v,j⟩) ∈ E(D)`.
    Spatial(usize),
    /// The input dimension feeds reduce axis `r` (0-based) of this
    /// operator's computation: `(⟨u,i⟩, ⟨v,−r⟩) ∈ E(D)`.
    Reduce(usize),
    /// Sliding-window correspondence to output dimension `dim`: the
    /// axes align, but splitting requires each part to read `halo`
    /// extra input elements at the part boundary (a 3×3 stride-1
    /// convolution has `halo = 2` along H and W).
    ///
    /// The paper's footnote 2 excludes these axes from fission and
    /// defers them to future work; this reproduction implements them
    /// with halo-overlap accounting (extension E1 in DESIGN.md).
    Windowed {
        /// Output dimension sharing the axis.
        dim: usize,
        /// Extra input elements per part boundary.
        halo: u64,
    },
    /// No graph-level correspondence (broadcast, reshaped-away, gather
    /// index, sliced axis, …).
    Unlinked,
}

impl DimLink {
    /// The output dimension this link targets, for spatial and windowed
    /// links.
    pub fn spatial_dim(&self) -> Option<usize> {
        match *self {
            DimLink::Spatial(d) => Some(d),
            DimLink::Windowed { dim, .. } => Some(dim),
            _ => None,
        }
    }
}

/// The dimension links of one operator ([`OpKind::dim_links_into`]):
/// one row per input, as end offsets into one data array, so a buffer
/// refilled per node allocates only while it grows. `links[i]` is the
/// row of input `i`.
#[derive(Debug, Clone, Default)]
pub struct DimLinks {
    ends: Vec<u32>,
    data: Vec<DimLink>,
}

impl DimLinks {
    /// Every link, the rows end to end.
    pub fn all(&self) -> &[DimLink] {
        &self.data
    }

    fn clear(&mut self) {
        self.ends.clear();
        self.data.clear();
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = DimLink>) {
        self.data.extend(row);
        self.ends.push(self.data.len() as u32);
    }
}

impl std::ops::Index<usize> for DimLinks {
    type Output = [DimLink];

    fn index(&self, i: usize) -> &[DimLink] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }
}

/// Errors produced by operator shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// Wrong number of inputs: `(op, expected, got)`.
    Arity(&'static str, usize, usize),
    /// An input had an unexpected rank.
    Rank(&'static str, usize),
    /// Two extents that must agree did not.
    DimMismatch(&'static str, u64, u64),
    /// Attribute out of range (axis, permutation, slice bounds …).
    BadAttr(&'static str),
    /// Convolution/pooling window larger than padded input.
    InvalidWindow,
    /// Reshape target has a different element count.
    ReshapeElements(u64, u64),
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Arity(op, want, got) => {
                write!(f, "{op}: expected {want} inputs, got {got}")
            }
            OpError::Rank(op, got) => write!(f, "{op}: unexpected input rank {got}"),
            OpError::DimMismatch(op, a, b) => {
                write!(f, "{op}: dimension mismatch {a} vs {b}")
            }
            OpError::BadAttr(msg) => write!(f, "invalid attribute: {msg}"),
            OpError::InvalidWindow => write!(f, "window larger than padded input"),
            OpError::ReshapeElements(a, b) => {
                write!(f, "reshape changes element count {a} -> {b}")
            }
        }
    }
}

impl std::error::Error for OpError {}

/// An operator of the computation graph.
///
/// See the [module documentation](self) for the catalogue. `OpKind`
/// derives [`Hash`] so the Weisfeiler–Lehman graph hash of Algorithm 3
/// can incorporate full operator attributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Graph input (no predecessors).
    Input(InputKind),
    /// 2-D matrix product `[m,k] × [k,n] → [m,n]` with optional
    /// transposes (so backward passes need no explicit transpose nodes).
    MatMul { transpose_a: bool, transpose_b: bool },
    /// Batched matrix product: equal leading batch dims, trailing matmul.
    BatchMatMul { transpose_a: bool, transpose_b: bool },
    /// 2-D convolution: `(x[N,C,H,W], w[O,C,KH,KW]) → [N,O,OH,OW]`.
    Conv2d(Conv2dAttrs),
    /// Gradient of conv w.r.t. input: `(dy, w) → dx`.
    Conv2dGradInput(Conv2dAttrs),
    /// Gradient of conv w.r.t. weight: `(x, dy) → dw`.
    Conv2dGradWeight(Conv2dAttrs),
    /// 2-D pooling.
    Pool2d(Pool2dAttrs),
    /// Gradient of pooling: `(x, dy) → dx`.
    Pool2dGrad(Pool2dAttrs),
    /// Nearest-neighbour upsampling by an integer factor.
    Upsample2d { scale: u64 },
    /// Gradient of upsampling: `(dy) → dx`.
    Upsample2dGrad { scale: u64 },
    /// Elementwise unary.
    Unary(UnaryKind),
    /// Elementwise unary backward: `(x_or_y, dy) → dx`.
    UnaryGrad(UnaryGradKind),
    /// Elementwise binary with broadcasting.
    Binary(BinaryKind),
    /// Reduction over `axes` (0-based, sorted, deduplicated).
    Reduce { kind: ReduceKind, axes: Vec<usize>, keep_dims: bool },
    /// Broadcast (expand) to `shape`; used for gradients of reductions.
    Broadcast { shape: Shape },
    /// Softmax over `axis`.
    Softmax { axis: usize },
    /// Softmax backward: `(y, dy) → dx`.
    SoftmaxGrad { axis: usize },
    /// Layer normalization over the trailing `axis` (non-affine; scale and
    /// shift are expressed as separate elementwise ops).
    LayerNorm { axis: usize },
    /// LayerNorm backward: `(x, dy) → dx`.
    LayerNormGrad { axis: usize },
    /// Embedding lookup: `(table[V,C], ids[..]) → [.., C]`.
    Embedding,
    /// Embedding backward: `(ids, dy) → d_table[V,C]`.
    EmbeddingGrad { vocab: u64 },
    /// Mean cross-entropy: `(logits[N,C], labels[N]) → scalar`.
    CrossEntropy,
    /// Cross-entropy backward: `(logits, labels) → d_logits`.
    CrossEntropyGrad,
    /// Dimension permutation (materialized copy in the cost model).
    Transpose { perm: Vec<usize> },
    /// Element-count-preserving reshape (an alias: allocates no memory).
    Reshape { shape: Shape },
    /// Contiguous slice `[start, start+len)` along `axis`.
    Slice { axis: usize, start: u64, len: u64 },
    /// Zero padding along `axis` (gradient of `Slice`).
    Pad { axis: usize, before: u64, after: u64 },
    /// Concatenation along `axis` (any number of inputs ≥ 1).
    Concat { axis: usize },
    /// Fission-overlay: the representative `1/parts` slice along
    /// `axis`. `halo` is the extra overlap each part must read when
    /// the region contains sliding-window operators (extension E1).
    PartSlice { axis: usize, parts: u64, halo: u64 },
    /// Fission-overlay: merge of `parts` part-outputs; output is
    /// full-sized and accumulates across sequential parts.
    Merge { kind: MergeKind, axis: usize, parts: u64 },
    /// Swap-out to external storage (§5.2). Output lives off-device.
    Store,
    /// Swap-in from external storage (§5.2).
    Load,
    /// Fused SGD step `(w, dw) → w'`.
    SgdUpdate,
}

impl OpKind {
    /// Short stable name, used in labels, hashes and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Input(InputKind::Activation) => "input",
            OpKind::Input(InputKind::Weight) => "weight",
            OpKind::Input(InputKind::Label) => "label",
            OpKind::MatMul { .. } => "matmul",
            OpKind::BatchMatMul { .. } => "batch_matmul",
            OpKind::Conv2d(_) => "conv2d",
            OpKind::Conv2dGradInput(_) => "conv2d_grad_input",
            OpKind::Conv2dGradWeight(_) => "conv2d_grad_weight",
            OpKind::Pool2d(_) => "pool2d",
            OpKind::Pool2dGrad(_) => "pool2d_grad",
            OpKind::Upsample2d { .. } => "upsample2d",
            OpKind::Upsample2dGrad { .. } => "upsample2d_grad",
            OpKind::Unary(_) => "unary",
            OpKind::UnaryGrad(_) => "unary_grad",
            OpKind::Binary(_) => "binary",
            OpKind::Reduce { .. } => "reduce",
            OpKind::Broadcast { .. } => "broadcast",
            OpKind::Softmax { .. } => "softmax",
            OpKind::SoftmaxGrad { .. } => "softmax_grad",
            OpKind::LayerNorm { .. } => "layer_norm",
            OpKind::LayerNormGrad { .. } => "layer_norm_grad",
            OpKind::Embedding => "embedding",
            OpKind::EmbeddingGrad { .. } => "embedding_grad",
            OpKind::CrossEntropy => "cross_entropy",
            OpKind::CrossEntropyGrad => "cross_entropy_grad",
            OpKind::Transpose { .. } => "transpose",
            OpKind::Reshape { .. } => "reshape",
            OpKind::Slice { .. } => "slice",
            OpKind::Pad { .. } => "pad",
            OpKind::Concat { .. } => "concat",
            OpKind::PartSlice { .. } => "part_slice",
            OpKind::Merge { .. } => "merge",
            OpKind::Store => "store",
            OpKind::Load => "load",
            OpKind::SgdUpdate => "sgd_update",
        }
    }

    /// Whether this is a graph input node (no predecessors).
    pub fn is_input(&self) -> bool {
        matches!(self, OpKind::Input(_))
    }

    /// Whether this is a trainable-parameter input.
    pub fn is_weight_input(&self) -> bool {
        matches!(self, OpKind::Input(InputKind::Weight))
    }

    /// Whether this is a swap operator (`Store`/`Load`).
    pub fn is_swap(&self) -> bool {
        matches!(self, OpKind::Store | OpKind::Load)
    }

    /// Whether the output is a zero-copy alias of its first input.
    /// `Slice` is a strided view, as in PyTorch/rustworkx-backed MAGIS:
    /// it allocates nothing and keeps the source storage alive.
    /// `SgdUpdate` writes the weight in place (`w -= lr·dw`), so its
    /// "output" is the weight's own storage.
    pub fn is_alias(&self) -> bool {
        matches!(self, OpKind::Reshape { .. } | OpKind::Slice { .. } | OpKind::SgdUpdate)
    }

    /// Whether this op participates in the Dimension Graph. Weight
    /// inputs are excluded (§4.2: fission shares weights rather than
    /// slicing them), as the paper's footnote 3 notes; labels *are*
    /// included so training graphs can split along the batch.
    pub fn in_dim_graph(&self) -> bool {
        !matches!(self, OpKind::Input(InputKind::Weight))
    }

    /// Number of reduce axes `r_v` of this operator's computation.
    pub fn num_reduce_axes(&self) -> usize {
        match self {
            OpKind::MatMul { .. }
            | OpKind::BatchMatMul { .. }
            | OpKind::Conv2d(_)
            | OpKind::Conv2dGradInput(_) => 1,
            // dw contracts over batch, H, and W; modelling them as
            // separate reduce axes keeps the batch/H/W dimension chains
            // from merging at every weight-gradient node.
            OpKind::Conv2dGradWeight(_) => 3,
            OpKind::EmbeddingGrad { .. } => 2,
            OpKind::Reduce { axes, .. } => axes.len(),
            OpKind::CrossEntropy => 2,
            _ => 0,
        }
    }

    /// Expected number of inputs, or `None` if variadic (`Concat`).
    pub fn arity(&self) -> Option<usize> {
        match self {
            OpKind::Input(_) => Some(0),
            OpKind::MatMul { .. }
            | OpKind::BatchMatMul { .. }
            | OpKind::Conv2d(_)
            | OpKind::Conv2dGradInput(_)
            | OpKind::Conv2dGradWeight(_)
            | OpKind::Pool2dGrad(_)
            | OpKind::UnaryGrad(_)
            | OpKind::Binary(_)
            | OpKind::SoftmaxGrad { .. }
            | OpKind::LayerNormGrad { .. }
            | OpKind::Embedding
            | OpKind::EmbeddingGrad { .. }
            | OpKind::CrossEntropy
            | OpKind::CrossEntropyGrad
            | OpKind::SgdUpdate => Some(2),
            OpKind::Concat { .. } | OpKind::Merge { .. } => None,
            _ => Some(1),
        }
    }

    fn check_arity(&self, inputs: &[TensorMeta]) -> Result<(), OpError> {
        match self.arity() {
            Some(n) if inputs.len() != n => {
                Err(OpError::Arity(self.name(), n, inputs.len()))
            }
            None if inputs.is_empty() => Err(OpError::Arity(self.name(), 1, 0)),
            _ => Ok(()),
        }
    }

    /// Infers the output tensor metadata from input metadata.
    ///
    /// # Errors
    ///
    /// Returns an [`OpError`] when arities, ranks, or extents are
    /// inconsistent with the operator's requirements.
    pub fn infer(&self, inputs: &[TensorMeta]) -> Result<TensorMeta, OpError> {
        self.check_arity(inputs)?;
        match self {
            OpKind::Input(_) => Err(OpError::BadAttr(
                "input nodes carry explicit metadata; infer() is not applicable",
            )),
            OpKind::MatMul { transpose_a, transpose_b } => {
                let (a, b) = (&inputs[0], &inputs[1]);
                if a.shape.rank() != 2 || b.shape.rank() != 2 {
                    return Err(OpError::Rank("matmul", a.shape.rank().max(b.shape.rank())));
                }
                let (m, ka) = ab_dims(&a.shape, 0, *transpose_a);
                let (kb, n) = ab_dims(&b.shape, 0, *transpose_b);
                if ka != kb {
                    return Err(OpError::DimMismatch("matmul", ka, kb));
                }
                Ok(TensorMeta::new([m, n], a.dtype))
            }
            OpKind::BatchMatMul { transpose_a, transpose_b } => {
                let (a, b) = (&inputs[0], &inputs[1]);
                let ra = a.shape.rank();
                let rb = b.shape.rank();
                if ra < 3 || ra != rb {
                    return Err(OpError::Rank("batch_matmul", ra.max(rb)));
                }
                for i in 0..ra - 2 {
                    if a.shape.dim(i) != b.shape.dim(i) {
                        return Err(OpError::DimMismatch(
                            "batch_matmul",
                            a.shape.dim(i),
                            b.shape.dim(i),
                        ));
                    }
                }
                let (m, ka) = ab_dims(&a.shape, ra - 2, *transpose_a);
                let (kb, n) = ab_dims(&b.shape, ra - 2, *transpose_b);
                if ka != kb {
                    return Err(OpError::DimMismatch("batch_matmul", ka, kb));
                }
                let mut dims: Vec<u64> = a.shape.dims()[..ra - 2].to_vec();
                dims.push(m);
                dims.push(n);
                Ok(TensorMeta::new(dims, a.dtype))
            }
            OpKind::Conv2d(c) => {
                let (x, w) = (&inputs[0], &inputs[1]);
                if x.shape.rank() != 4 || w.shape.rank() != 4 {
                    return Err(OpError::Rank("conv2d", x.shape.rank()));
                }
                if x.shape.dim(1) != w.shape.dim(1) {
                    return Err(OpError::DimMismatch("conv2d", x.shape.dim(1), w.shape.dim(1)));
                }
                let (oh, ow) =
                    c.out_hw(x.shape.dim(2), x.shape.dim(3), w.shape.dim(2), w.shape.dim(3))?;
                Ok(TensorMeta::new([x.shape.dim(0), w.shape.dim(0), oh, ow], x.dtype))
            }
            OpKind::Conv2dGradInput(_) => {
                // (dy[N,O,OH,OW], w[O,I,KH,KW]) -> dx[N,I,H,W]; we recover
                // H,W only for stride-1 same-padding convs in our models,
                // so carry them via the weight: dx H,W = dy H,W * stride is
                // not generally invertible — models use this op through the
                // autodiff builder which supplies the forward input shape
                // via `Broadcast`-free wiring; here we require stride 1 and
                // padding such that spatial dims are preserved.
                let (dy, w) = (&inputs[0], &inputs[1]);
                if dy.shape.rank() != 4 || w.shape.rank() != 4 {
                    return Err(OpError::Rank("conv2d_grad_input", dy.shape.rank()));
                }
                if dy.shape.dim(1) != w.shape.dim(0) {
                    return Err(OpError::DimMismatch(
                        "conv2d_grad_input",
                        dy.shape.dim(1),
                        w.shape.dim(0),
                    ));
                }
                Ok(TensorMeta::new(
                    [dy.shape.dim(0), w.shape.dim(1), dy.shape.dim(2), dy.shape.dim(3)],
                    dy.dtype,
                ))
            }
            OpKind::Conv2dGradWeight(_) => {
                // (x[N,I,H,W], dy[N,O,OH,OW]) -> dw[O,I,KH,KW]; kernel size
                // is not recoverable from shapes alone, so the autodiff
                // builder sets the output via explicit metadata. As a
                // fallback we infer a 3x3 kernel, the dominant case.
                let (x, dy) = (&inputs[0], &inputs[1]);
                if x.shape.rank() != 4 || dy.shape.rank() != 4 {
                    return Err(OpError::Rank("conv2d_grad_weight", x.shape.rank()));
                }
                if x.shape.dim(0) != dy.shape.dim(0) {
                    return Err(OpError::DimMismatch(
                        "conv2d_grad_weight",
                        x.shape.dim(0),
                        dy.shape.dim(0),
                    ));
                }
                Ok(TensorMeta::new([dy.shape.dim(1), x.shape.dim(1), 3, 3], x.dtype))
            }
            OpKind::Pool2d(p) => {
                let x = &inputs[0];
                if x.shape.rank() != 4 {
                    return Err(OpError::Rank("pool2d", x.shape.rank()));
                }
                let oh = window_extent(x.shape.dim(2), p.kernel.0, p.stride.0)?;
                let ow = window_extent(x.shape.dim(3), p.kernel.1, p.stride.1)?;
                Ok(TensorMeta::new([x.shape.dim(0), x.shape.dim(1), oh, ow], x.dtype))
            }
            OpKind::Pool2dGrad(_) => {
                // (x, dy) -> dx with x's shape.
                Ok(inputs[0].clone())
            }
            OpKind::Upsample2d { scale } => {
                let x = &inputs[0];
                if x.shape.rank() != 4 {
                    return Err(OpError::Rank("upsample2d", x.shape.rank()));
                }
                let up = |d: u64| {
                    d.checked_mul(*scale)
                        .filter(|&e| e > 0)
                        .ok_or(OpError::BadAttr("upsample scale out of range"))
                };
                Ok(TensorMeta::new(
                    [x.shape.dim(0), x.shape.dim(1), up(x.shape.dim(2))?, up(x.shape.dim(3))?],
                    x.dtype,
                ))
            }
            OpKind::Upsample2dGrad { scale } => {
                let dy = &inputs[0];
                if dy.shape.rank() != 4 {
                    return Err(OpError::Rank("upsample2d_grad", dy.shape.rank()));
                }
                if !dy.shape.dim(2).is_multiple_of(*scale) || !dy.shape.dim(3).is_multiple_of(*scale) {
                    return Err(OpError::DimMismatch("upsample2d_grad", dy.shape.dim(2), *scale));
                }
                Ok(TensorMeta::new(
                    [
                        dy.shape.dim(0),
                        dy.shape.dim(1),
                        dy.shape.dim(2) / scale,
                        dy.shape.dim(3) / scale,
                    ],
                    dy.dtype,
                ))
            }
            OpKind::Unary(_) => Ok(inputs[0].clone()),
            OpKind::UnaryGrad(_) => {
                same_shape("unary_grad", &inputs[0].shape, &inputs[1].shape)?;
                Ok(inputs[1].clone())
            }
            OpKind::Binary(_) => {
                let shape = broadcast(&inputs[0].shape, &inputs[1].shape)
                    .ok_or(OpError::DimMismatch("binary", 0, 0))?;
                Ok(TensorMeta::new(shape, inputs[0].dtype))
            }
            OpKind::Reduce { axes, keep_dims, .. } => {
                let x = &inputs[0];
                if axes.iter().any(|&a| a >= x.shape.rank()) {
                    return Err(OpError::BadAttr("reduce axis out of range"));
                }
                let mut dims = Vec::new();
                for (i, &d) in x.shape.dims().iter().enumerate() {
                    if axes.contains(&i) {
                        if *keep_dims {
                            dims.push(1);
                        }
                    } else {
                        dims.push(d);
                    }
                }
                Ok(TensorMeta::new(dims, x.dtype))
            }
            OpKind::Broadcast { shape } => {
                let x = &inputs[0];
                if broadcast(&x.shape, shape).as_ref() != Some(shape) {
                    return Err(OpError::BadAttr("broadcast target incompatible"));
                }
                Ok(TensorMeta::new(shape.clone(), x.dtype))
            }
            OpKind::Softmax { axis } | OpKind::LayerNorm { axis } => {
                let x = &inputs[0];
                if *axis >= x.shape.rank() {
                    return Err(OpError::BadAttr("normalization axis out of range"));
                }
                Ok(x.clone())
            }
            OpKind::SoftmaxGrad { axis } | OpKind::LayerNormGrad { axis } => {
                if *axis >= inputs[0].shape.rank() {
                    return Err(OpError::BadAttr("normalization axis out of range"));
                }
                same_shape("norm_grad", &inputs[0].shape, &inputs[1].shape)?;
                Ok(inputs[1].clone())
            }
            OpKind::Embedding => {
                let (table, ids) = (&inputs[0], &inputs[1]);
                if table.shape.rank() != 2 {
                    return Err(OpError::Rank("embedding", table.shape.rank()));
                }
                let mut dims = ids.shape.dims().to_vec();
                dims.push(table.shape.dim(1));
                Ok(TensorMeta::new(dims, table.dtype))
            }
            OpKind::EmbeddingGrad { vocab } => {
                let (_ids, dy) = (&inputs[0], &inputs[1]);
                let &c = dy.shape.dims().last().ok_or(OpError::Rank("embedding_grad", 0))?;
                if *vocab == 0 {
                    return Err(OpError::BadAttr("embedding vocabulary must be positive"));
                }
                Ok(TensorMeta::new([*vocab, c], dy.dtype))
            }
            OpKind::CrossEntropy => {
                let (logits, labels) = (&inputs[0], &inputs[1]);
                if logits.shape.rank() != 2 || labels.shape.rank() != 1 {
                    return Err(OpError::Rank("cross_entropy", logits.shape.rank()));
                }
                same_dim("cross_entropy", logits.shape.dim(0), labels.shape.dim(0))?;
                Ok(TensorMeta::new(Shape::scalar(), DType::F32))
            }
            OpKind::CrossEntropyGrad => {
                let (logits, labels) = (&inputs[0], &inputs[1]);
                same_dim("cross_entropy_grad", logits.shape.dim(0), labels.shape.dim(0))?;
                Ok(inputs[0].clone())
            }
            OpKind::Transpose { perm } => {
                let x = &inputs[0];
                if perm.len() != x.shape.rank() {
                    return Err(OpError::BadAttr("transpose perm length mismatch"));
                }
                let mut seen = vec![false; perm.len()];
                for &p in perm {
                    if p >= perm.len() || seen[p] {
                        return Err(OpError::BadAttr("transpose perm not a permutation"));
                    }
                    seen[p] = true;
                }
                let dims: Vec<u64> = perm.iter().map(|&p| x.shape.dim(p)).collect();
                Ok(TensorMeta::new(dims, x.dtype))
            }
            OpKind::Reshape { shape } => {
                let x = &inputs[0];
                if x.shape.num_elements() != shape.num_elements() {
                    return Err(OpError::ReshapeElements(
                        x.shape.num_elements(),
                        shape.num_elements(),
                    ));
                }
                Ok(TensorMeta::new(shape.clone(), x.dtype))
            }
            OpKind::Slice { axis, start, len } => {
                let x = &inputs[0];
                let d = x.shape.get(*axis).ok_or(OpError::BadAttr("slice axis out of range"))?;
                if start.checked_add(*len).is_none_or(|end| end > d) || *len == 0 {
                    return Err(OpError::BadAttr("slice bounds out of range"));
                }
                Ok(TensorMeta::new(x.shape.with_dim(*axis, *len), x.dtype))
            }
            OpKind::Pad { axis, before, after } => {
                let x = &inputs[0];
                let d = x.shape.get(*axis).ok_or(OpError::BadAttr("pad axis out of range"))?;
                let padded = d
                    .checked_add(*before)
                    .and_then(|e| e.checked_add(*after))
                    .ok_or(OpError::BadAttr("padding overflows the extent"))?;
                Ok(TensorMeta::new(x.shape.with_dim(*axis, padded), x.dtype))
            }
            OpKind::Concat { axis } => {
                let first = &inputs[0];
                let mut total = 0;
                for t in inputs {
                    if t.shape.rank() != first.shape.rank() {
                        return Err(OpError::Rank("concat", t.shape.rank()));
                    }
                    for i in 0..t.shape.rank() {
                        if i != *axis && t.shape.dim(i) != first.shape.dim(i) {
                            return Err(OpError::DimMismatch(
                                "concat",
                                t.shape.dim(i),
                                first.shape.dim(i),
                            ));
                        }
                    }
                    total += t.shape.get(*axis).ok_or(OpError::BadAttr("concat axis"))?;
                }
                Ok(TensorMeta::new(first.shape.with_dim(*axis, total), first.dtype))
            }
            OpKind::PartSlice { axis, parts, .. } => {
                // The halo is a cost annotation; the representative
                // part's stored shape stays the exact 1/parts chunk so
                // downstream shape checks remain strict.
                let x = &inputs[0];
                if x.shape.get(*axis).is_none() {
                    return Err(OpError::BadAttr("part_slice axis out of range"));
                }
                if *parts == 0 {
                    return Err(OpError::BadAttr("part_slice parts must be positive"));
                }
                Ok(TensorMeta::new(x.shape.split_dim(*axis, *parts), x.dtype))
            }
            OpKind::Merge { kind, axis, parts } => {
                let x = &inputs[0];
                match kind {
                    MergeKind::Concat => {
                        let d = x
                            .shape
                            .get(*axis)
                            .ok_or(OpError::BadAttr("merge axis out of range"))?;
                        let merged = d
                            .checked_mul(*parts)
                            .filter(|&e| e > 0)
                            .ok_or(OpError::BadAttr("merge parts out of range"))?;
                        Ok(TensorMeta::new(x.shape.with_dim(*axis, merged), x.dtype))
                    }
                    MergeKind::Sum => Ok(x.clone()),
                }
            }
            OpKind::Store | OpKind::Load => Ok(inputs[0].clone()),
            OpKind::SgdUpdate => {
                same_shape("sgd_update", &inputs[0].shape, &inputs[1].shape)?;
                Ok(inputs[0].clone())
            }
        }
    }

    /// Arithmetic work of the operator in floating-point operations.
    pub fn flops(&self, inputs: &[TensorMeta], output: &TensorMeta) -> f64 {
        let out_elems = output.shape.num_elements() as f64;
        match self {
            OpKind::Input(_)
            | OpKind::Reshape { .. }
            | OpKind::Store
            | OpKind::Load
            | OpKind::Broadcast { .. } => 0.0,
            OpKind::MatMul { transpose_a, .. } => {
                let k = if *transpose_a { inputs[0].shape.dim(0) } else { inputs[0].shape.dim(1) };
                2.0 * out_elems * k as f64
            }
            OpKind::BatchMatMul { transpose_a, .. } => {
                let r = inputs[0].shape.rank();
                let k = if *transpose_a {
                    inputs[0].shape.dim(r - 2)
                } else {
                    inputs[0].shape.dim(r - 1)
                };
                2.0 * out_elems * k as f64
            }
            OpKind::Conv2d(_) => {
                let w = &inputs[1].shape;
                2.0 * out_elems * (w.dim(1) * w.dim(2) * w.dim(3)) as f64
            }
            OpKind::Conv2dGradInput(_) => {
                let w = &inputs[1].shape;
                2.0 * out_elems * (w.dim(0) * w.dim(2) * w.dim(3)) as f64
            }
            OpKind::Conv2dGradWeight(_) => {
                let x = &inputs[0].shape;
                // Each dw element accumulates over N*OH*OW positions.
                let dy = &inputs[1].shape;
                2.0 * out_elems * (x.dim(0) * dy.dim(2) * dy.dim(3)) as f64
            }
            OpKind::Pool2d(p) => out_elems * (p.kernel.0 * p.kernel.1) as f64,
            OpKind::Pool2dGrad(p) => out_elems * (p.kernel.0 * p.kernel.1) as f64,
            OpKind::Upsample2d { .. } | OpKind::Upsample2dGrad { .. } => out_elems,
            OpKind::Unary(k) => out_elems * k.flops_per_element(),
            OpKind::UnaryGrad(_) => out_elems * 4.0,
            OpKind::Binary(_) => out_elems,
            OpKind::Reduce { .. } => inputs[0].shape.num_elements() as f64,
            OpKind::Softmax { .. } => out_elems * 5.0,
            OpKind::SoftmaxGrad { .. } => out_elems * 4.0,
            OpKind::LayerNorm { .. } => out_elems * 8.0,
            OpKind::LayerNormGrad { .. } => out_elems * 12.0,
            OpKind::Embedding => 0.0,
            OpKind::EmbeddingGrad { .. } => inputs[1].shape.num_elements() as f64,
            OpKind::CrossEntropy => inputs[0].shape.num_elements() as f64 * 5.0,
            OpKind::CrossEntropyGrad => out_elems * 5.0,
            OpKind::Transpose { .. }
            | OpKind::Slice { .. }
            | OpKind::Pad { .. }
            | OpKind::Concat { .. } => 0.0,
            OpKind::PartSlice { .. } | OpKind::Merge { .. } => 0.0,
            OpKind::SgdUpdate => out_elems * 2.0,
        }
    }

    /// Bytes moved through device memory by the operator: inputs read plus
    /// output written. Aliasing ops and inputs move no data.
    pub fn bytes_accessed(&self, inputs: &[TensorMeta], output: &TensorMeta) -> u64 {
        // In-place SGD still moves real data (read w + dw, write w).
        let free_alias = self.is_alias() && !matches!(self, OpKind::SgdUpdate);
        if self.is_input() || free_alias || matches!(self, OpKind::Broadcast { .. }) {
            return 0;
        }
        match self {
            // Fission boundary ops model *total* traffic over all parts
            // in a single node (their `cost_repeat` stays 1): a
            // part-slice reads/writes the full input once across parts
            // plus the halo overlap re-reads; a concat-merge writes the
            // full output once across parts.
            OpKind::PartSlice { axis, parts, halo } => {
                let base = 2 * inputs[0].size_bytes();
                let extent = inputs[0].shape.dim(*axis).max(1);
                let halo_bytes =
                    2 * inputs[0].size_bytes() * halo * parts.saturating_sub(1) / extent;
                base + halo_bytes
            }
            OpKind::Merge { kind: MergeKind::Concat, .. } => 2 * output.size_bytes(),
            _ => inputs.iter().map(TensorMeta::size_bytes).sum::<u64>() + output.size_bytes(),
        }
    }

    /// For each input, how each of that input's dimensions links to this
    /// operator's output dims / reduce axes (the D-Graph edge labels):
    /// `out` is cleared and given one row per input, one [`DimLink`] per
    /// input dimension. `inputs` yields the input metas in order; it is
    /// re-walked (cloned) wherever the table looks one up, so a caller
    /// walking a graph passes a `map` over the node's input ids and
    /// collects nothing.
    pub fn dim_links_into<'a, I>(&self, inputs: I, output: &TensorMeta, out: &mut DimLinks)
    where
        I: Iterator<Item = &'a TensorMeta> + Clone,
    {
        use DimLink::{Reduce, Spatial, Unlinked};
        out.clear();
        let at = |i: usize| inputs.clone().nth(i).expect("operator arity");
        let ident = |out: &mut DimLinks, i: usize| out.push_row((0..at(i).shape.rank()).map(Spatial));
        // Every dim but `axis` keeps its place.
        let all_but = |out: &mut DimLinks, t: &TensorMeta, axis: Option<usize>| {
            out.push_row((0..t.shape.rank()).map(|i| if Some(i) == axis { Unlinked } else { Spatial(i) }));
        };
        // Stride-1 convolutions admit halo-overlap splits along H/W
        // (extension E1); strided ones stay unlinked.
        let win = |axis: usize, k: u64, stride: u64| {
            if stride == 1 {
                DimLink::Windowed { dim: axis, halo: k.saturating_sub(1) }
            } else {
                Unlinked
            }
        };
        match self {
            OpKind::Input(_) => {}
            OpKind::MatMul { transpose_a, transpose_b } => {
                out.push_row(if *transpose_a { [Reduce(0), Spatial(0)] } else { [Spatial(0), Reduce(0)] });
                out.push_row(if *transpose_b { [Spatial(1), Reduce(0)] } else { [Reduce(0), Spatial(1)] });
            }
            OpKind::BatchMatMul { transpose_a, transpose_b } => {
                let r = at(0).shape.rank();
                let batch = (0..r - 2).map(Spatial);
                let a = if *transpose_a { [Reduce(0), Spatial(r - 2)] } else { [Spatial(r - 2), Reduce(0)] };
                let b = if *transpose_b { [Spatial(r - 1), Reduce(0)] } else { [Reduce(0), Spatial(r - 1)] };
                out.push_row(batch.clone().chain(a));
                out.push_row(batch.chain(b));
            }
            OpKind::Conv2d(c) | OpKind::Conv2dGradInput(c) => {
                let w = &at(1).shape;
                out.push_row([
                    Spatial(0),
                    Reduce(0),
                    win(2, w.dim(2), c.stride.0),
                    win(3, w.dim(3), c.stride.1),
                ]);
                out.push_row(if matches!(self, OpKind::Conv2d(_)) {
                    [Spatial(1), Reduce(0), Unlinked, Unlinked]
                } else {
                    [Reduce(0), Spatial(1), Unlinked, Unlinked]
                });
            }
            OpKind::Conv2dGradWeight(_) => {
                // Batch, H, and W are all contracted, each through its
                // own reduce axis: splitting any of them yields partial
                // weight gradients that sum.
                out.push_row([Reduce(0), Spatial(1), Reduce(1), Reduce(2)]);
                out.push_row([Reduce(0), Spatial(0), Reduce(1), Reduce(2)]);
            }
            OpKind::Pool2d(p) | OpKind::Pool2dGrad(p) => {
                // Our pools are non-overlapping (stride == kernel):
                // output rows map to exact input chunks, halo-free.
                let exact = p.stride == p.kernel;
                let hw = |axis: usize| if exact { Spatial(axis) } else { Unlinked };
                let row = [Spatial(0), Spatial(1), hw(2), hw(3)];
                out.push_row(row);
                if matches!(self, OpKind::Pool2dGrad(_)) {
                    out.push_row(row);
                }
            }
            OpKind::Upsample2d { .. } | OpKind::Upsample2dGrad { .. } => {
                // Integer up/down scaling: contiguous chunks correspond.
                out.push_row([Spatial(0), Spatial(1), Spatial(2), Spatial(3)]);
            }
            OpKind::Unary(_)
            | OpKind::Softmax { .. }
            | OpKind::LayerNorm { .. }
            | OpKind::Store
            | OpKind::Load => ident(out, 0),
            OpKind::UnaryGrad(_)
            | OpKind::SoftmaxGrad { .. }
            | OpKind::LayerNormGrad { .. }
            | OpKind::SgdUpdate => {
                ident(out, 0);
                ident(out, 1);
            }
            OpKind::Binary(_) => {
                // Right-aligned broadcast: input dim i maps to output dim
                // i + (out_rank - in_rank) when extents match.
                for t in inputs.clone() {
                    out.push_row(broadcast_links(&t.shape, &output.shape));
                }
            }
            OpKind::Reduce { axes, keep_dims, .. } => {
                let (mut out_i, mut red_i) = (0usize, 0usize);
                out.push_row((0..at(0).shape.rank()).map(|i| {
                    if axes.contains(&i) {
                        red_i += 1;
                        out_i += usize::from(*keep_dims);
                        Reduce(red_i - 1)
                    } else {
                        out_i += 1;
                        Spatial(out_i - 1)
                    }
                }));
            }
            OpKind::Broadcast { shape } => out.push_row(broadcast_links(&at(0).shape, shape)),
            OpKind::Embedding => {
                out.push_row([Unlinked, Spatial(output.shape.rank() - 1)]);
                ident(out, 1);
            }
            OpKind::EmbeddingGrad { .. } => {
                // Scatter-add contracts every leading (position) dim;
                // distinct reduce axes keep batch/sequence chains apart.
                out.push_row((0..at(0).shape.rank()).map(|i| Reduce(i.min(1))));
                let r = at(1).shape.rank();
                out.push_row((0..r - 1).map(|i| Reduce(i.min(1))).chain([Spatial(1)]));
            }
            OpKind::CrossEntropy => {
                out.push_row([Reduce(0), Reduce(1)]);
                out.push_row([Reduce(0)]);
            }
            OpKind::CrossEntropyGrad => {
                out.push_row([Spatial(0), Spatial(1)]);
                out.push_row([Spatial(0)]);
            }
            OpKind::Transpose { perm } => {
                // Output dim j takes input dim perm[j]; invert.
                out.push_row((0..perm.len()).map(|p| perm.iter().rposition(|&q| q == p).map_or(Unlinked, Spatial)));
            }
            OpKind::Reshape { shape } => out.push_row(reshape_links(&at(0).shape, shape)),
            OpKind::Slice { axis, .. } | OpKind::Pad { axis, .. } | OpKind::PartSlice { axis, .. } => {
                all_but(out, at(0), Some(*axis));
            }
            OpKind::Concat { axis } => inputs.clone().for_each(|t| all_but(out, t, Some(*axis))),
            OpKind::Merge { axis, kind, .. } => {
                let axis = (*kind == MergeKind::Concat).then_some(*axis);
                inputs.clone().for_each(|t| all_but(out, t, axis));
            }
        }
    }

    /// [`Self::dim_links_into`] as one vector per input, for callers
    /// that keep the links (tests; the search paths reuse a buffer).
    pub fn input_dim_links<M: Borrow<TensorMeta>>(
        &self,
        inputs: &[M],
        output: &TensorMeta,
    ) -> Vec<Vec<DimLink>> {
        let mut links = DimLinks::default();
        self.dim_links_into(inputs.iter().map(Borrow::borrow), output, &mut links);
        (0..links.ends.len()).map(|i| links[i].to_vec()).collect()
    }

    /// Whether a fission transformation may split output dimension
    /// `axis` (0-based, below the output's rank).
    ///
    /// Normalization axes (softmax/layer-norm), gathered axes, sliced or
    /// concatenated axes, and the spatial axes of sliding-window ops are
    /// not splittable; splitting them would change semantics. This is a
    /// correctness tightening over the paper's presentation, which leaves
    /// the restriction implicit in F-Trans validity.
    pub fn splittable_output_dim(&self, output: &TensorMeta, axis: usize) -> bool {
        let r = output.shape.rank();
        match self {
            OpKind::Softmax { axis: a }
            | OpKind::SoftmaxGrad { axis: a }
            | OpKind::LayerNorm { axis: a }
            | OpKind::LayerNormGrad { axis: a }
            | OpKind::Slice { axis: a, .. }
            | OpKind::Pad { axis: a, .. }
            | OpKind::Concat { axis: a }
            | OpKind::PartSlice { axis: a, .. }
            | OpKind::Merge { axis: a, .. } => axis != *a,
            // Extension E1 (the paper's footnote-2 future work): H/W
            // axes of stride-1 convolutions and non-overlapping pools
            // are splittable with halo accounting; strided windows and
            // kernel dimensions are not.
            OpKind::Conv2d(c) | OpKind::Conv2dGradInput(c) if r == 4 => match axis {
                2 => c.stride.0 == 1,
                3 => c.stride.1 == 1,
                _ => true,
            },
            OpKind::Pool2d(p) | OpKind::Pool2dGrad(p) if r == 4 => axis < 2 || p.stride == p.kernel,
            OpKind::Conv2dGradWeight(_) if r == 4 => axis < 2, // not the kernel dims
            // The class axis participates in the softmax.
            OpKind::CrossEntropyGrad => axis != 1,
            OpKind::Input(InputKind::Weight) | OpKind::Input(InputKind::Label) => false,
            _ => true,
        }
    }

    /// [`Self::splittable_output_dim`] of every output dimension.
    pub fn splittable_output_dims(&self, output: &TensorMeta) -> Vec<bool> {
        (0..output.shape.rank()).map(|axis| self.splittable_output_dim(output, axis)).collect()
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Rows/cols of a 2-D (or trailing-2-D) operand after optional transpose.
fn ab_dims(s: &Shape, base: usize, transpose: bool) -> (u64, u64) {
    if transpose {
        (s.dim(base + 1), s.dim(base))
    } else {
        (s.dim(base), s.dim(base + 1))
    }
}

fn same_shape(op: &'static str, a: &Shape, b: &Shape) -> Result<(), OpError> {
    if a != b {
        return Err(OpError::DimMismatch(op, a.num_elements(), b.num_elements()));
    }
    Ok(())
}

fn same_dim(op: &'static str, a: u64, b: u64) -> Result<(), OpError> {
    if a != b {
        return Err(OpError::DimMismatch(op, a, b));
    }
    Ok(())
}

/// NumPy-style broadcast of two shapes; `None` when incompatible.
pub fn broadcast(a: &Shape, b: &Shape) -> Option<Shape> {
    let r = a.rank().max(b.rank());
    let mut dims = Vec::with_capacity(r);
    for i in 0..r {
        let da = if i + a.rank() >= r { a.dim(i + a.rank() - r) } else { 1 };
        let db = if i + b.rank() >= r { b.dim(i + b.rank() - r) } else { 1 };
        dims.push(if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        });
    }
    Some(Shape::new(dims))
}

/// Dimension links through a reshape: input dim `i` maps to output dim
/// `j` when the products of extents strictly before them are equal and
/// one extent divides the other.
///
/// Exact equality (`[B,T,C] → [B,T·C]` linking `B`) is the obvious
/// case. The divisibility relaxation links *leading factors* of merged
/// or split dims: in `[B·T, C] → [B, T, H, hd]` the flattened row dim
/// and `B` index the same outermost axis, so slicing one into `n`
/// contiguous parts (with `n` dividing the smaller extent — which the
/// F-Tree's divisor rule guarantees) slices the other identically.
/// This is what lets the batch dimension flow through the
/// flatten/unflatten reshapes around attention heads (Fig. 4).
/// Right-aligned broadcast of `from` into `to`: dim `i` maps to dim
/// `i + (to.rank − from.rank)` where the extents match.
fn broadcast_links<'a>(from: &'a Shape, to: &'a Shape) -> impl Iterator<Item = DimLink> + 'a {
    let shift = to.rank() - from.rank();
    (0..from.rank()).map(move |i| {
        if from.dim(i) == to.dim(i + shift) {
            DimLink::Spatial(i + shift)
        } else {
            DimLink::Unlinked
        }
    })
}

fn reshape_links(from: &Shape, to: &Shape) -> Vec<DimLink> {
    let mut links = vec![DimLink::Unlinked; from.rank()];
    let mut pre_from: u64 = 1;
    for (i, link) in links.iter_mut().enumerate() {
        let df = from.dim(i);
        let mut pre_to: u64 = 1;
        for j in 0..to.rank() {
            let dt = to.dim(j);
            if pre_from == pre_to && df > 1 && dt > 1 && (df.is_multiple_of(dt) || dt.is_multiple_of(df)) {
                *link = DimLink::Spatial(j);
                break;
            }
            pre_to *= dt;
            if pre_to > pre_from {
                break;
            }
        }
        pre_from *= df;
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: &[u64]) -> TensorMeta {
        TensorMeta::new(dims, DType::F32)
    }

    #[test]
    fn matmul_infer_and_flops() {
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let out = op.infer(&[t(&[64, 128]), t(&[128, 256])]).unwrap();
        assert_eq!(out.shape, Shape::from([64, 256]));
        assert_eq!(op.flops(&[t(&[64, 128]), t(&[128, 256])], &out), 2.0 * 64.0 * 256.0 * 128.0);
    }

    #[test]
    fn matmul_transposed() {
        let op = OpKind::MatMul { transpose_a: true, transpose_b: false };
        let out = op.infer(&[t(&[128, 64]), t(&[128, 256])]).unwrap();
        assert_eq!(out.shape, Shape::from([64, 256]));
        let op = OpKind::MatMul { transpose_a: false, transpose_b: true };
        let out = op.infer(&[t(&[64, 128]), t(&[256, 128])]).unwrap();
        assert_eq!(out.shape, Shape::from([64, 256]));
    }

    #[test]
    fn matmul_mismatch_rejected() {
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        assert!(op.infer(&[t(&[64, 128]), t(&[100, 256])]).is_err());
    }

    #[test]
    fn batch_matmul_infer() {
        let op = OpKind::BatchMatMul { transpose_a: false, transpose_b: false };
        let out = op.infer(&[t(&[8, 12, 64, 32]), t(&[8, 12, 32, 64])]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 12, 64, 64]));
    }

    #[test]
    fn batch_matmul_transpose_b_attention_pattern() {
        // Q @ K^T: [b, h, t, d] x [b, h, t, d] with transpose_b.
        let op = OpKind::BatchMatMul { transpose_a: false, transpose_b: true };
        let out = op.infer(&[t(&[2, 4, 16, 8]), t(&[2, 4, 16, 8])]).unwrap();
        assert_eq!(out.shape, Shape::from([2, 4, 16, 16]));
    }

    #[test]
    fn conv2d_infer() {
        let op = OpKind::Conv2d(Conv2dAttrs::same(1));
        let out = op.infer(&[t(&[8, 64, 56, 56]), t(&[128, 64, 3, 3])]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 128, 56, 56]));
        let op = OpKind::Conv2d(Conv2dAttrs::strided(2, 1));
        let out = op.infer(&[t(&[8, 64, 56, 56]), t(&[128, 64, 3, 3])]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 128, 28, 28]));
    }

    #[test]
    fn pool_and_upsample() {
        let op = OpKind::Pool2d(Pool2dAttrs::square(PoolKind::Max, 2));
        let out = op.infer(&[t(&[4, 16, 32, 32])]).unwrap();
        assert_eq!(out.shape, Shape::from([4, 16, 16, 16]));
        let op = OpKind::Upsample2d { scale: 2 };
        let out = op.infer(&[t(&[4, 16, 16, 16])]).unwrap();
        assert_eq!(out.shape, Shape::from([4, 16, 32, 32]));
        let op = OpKind::Upsample2dGrad { scale: 2 };
        let out = op.infer(&[t(&[4, 16, 32, 32])]).unwrap();
        assert_eq!(out.shape, Shape::from([4, 16, 16, 16]));
    }

    #[test]
    fn hostile_attributes_are_typed_errors() {
        let x = t(&[4, 16, 32, 32]);
        let w = t(&[8, 16, 3, 3]);
        let bad = |op: OpKind, inputs: &[TensorMeta]| match op.infer(inputs) {
            Err(OpError::BadAttr(_)) => {}
            other => panic!("{op}: {other:?}"),
        };
        let conv = |stride, padding| OpKind::Conv2d(Conv2dAttrs { stride, padding });
        bad(conv((0, 1), (1, 1)), &[x.clone(), w.clone()]);
        bad(conv((1, 1), (1, u64::MAX / 2 + 1)), &[x.clone(), w.clone()]);
        let pool = Pool2dAttrs { kind: PoolKind::Avg, kernel: (2, 2), stride: (2, 0) };
        bad(OpKind::Pool2d(pool), std::slice::from_ref(&x));
        bad(OpKind::Upsample2d { scale: 0 }, std::slice::from_ref(&x));
        bad(OpKind::Upsample2d { scale: u64::MAX }, std::slice::from_ref(&x));
        bad(OpKind::Slice { axis: 1, start: u64::MAX, len: 2 }, std::slice::from_ref(&x));
        bad(OpKind::Pad { axis: 1, before: u64::MAX, after: 1 }, std::slice::from_ref(&x));
        bad(OpKind::PartSlice { axis: 1, parts: 0, halo: 0 }, std::slice::from_ref(&x));
        let merge = OpKind::Merge { kind: MergeKind::Concat, axis: 1, parts: u64::MAX };
        bad(merge, std::slice::from_ref(&x));
        bad(OpKind::EmbeddingGrad { vocab: 0 }, &[t(&[4]), t(&[4, 16])]);
        // The window checks still come first.
        let huge = Pool2dAttrs { kind: PoolKind::Max, kernel: (64, 2), stride: (0, 1) };
        assert_eq!(OpKind::Pool2d(huge).infer(&[x]), Err(OpError::InvalidWindow));
    }

    #[test]
    fn binary_broadcast() {
        let op = OpKind::Binary(BinaryKind::Add);
        let out = op.infer(&[t(&[8, 128, 768]), t(&[768])]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 128, 768]));
        assert!(op.infer(&[t(&[8, 3]), t(&[4])]).is_err());
    }

    #[test]
    fn reduce_infer() {
        let op = OpKind::Reduce { kind: ReduceKind::Sum, axes: vec![0], keep_dims: false };
        let out = op.infer(&[t(&[32, 768])]).unwrap();
        assert_eq!(out.shape, Shape::from([768]));
        let op = OpKind::Reduce { kind: ReduceKind::Mean, axes: vec![1], keep_dims: true };
        let out = op.infer(&[t(&[32, 768])]).unwrap();
        assert_eq!(out.shape, Shape::from([32, 1]));
    }

    #[test]
    fn transpose_and_reshape() {
        let op = OpKind::Transpose { perm: vec![0, 2, 1, 3] };
        let out = op.infer(&[t(&[2, 3, 4, 5])]).unwrap();
        assert_eq!(out.shape, Shape::from([2, 4, 3, 5]));
        let op = OpKind::Reshape { shape: Shape::from([6, 20]) };
        let out = op.infer(&[t(&[2, 3, 4, 5])]).unwrap();
        assert_eq!(out.shape, Shape::from([6, 20]));
        assert!(op.is_alias());
        let bad = OpKind::Reshape { shape: Shape::from([7, 20]) };
        assert!(bad.infer(&[t(&[2, 3, 4, 5])]).is_err());
    }

    #[test]
    fn slice_concat_roundtrip() {
        let s0 = OpKind::Slice { axis: 1, start: 0, len: 64 };
        let s1 = OpKind::Slice { axis: 1, start: 64, len: 64 };
        let a = s0.infer(&[t(&[8, 128])]).unwrap();
        let b = s1.infer(&[t(&[8, 128])]).unwrap();
        let cat = OpKind::Concat { axis: 1 };
        let out = cat.infer(&[a, b]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 128]));
    }

    #[test]
    fn slice_bounds_checked() {
        let op = OpKind::Slice { axis: 0, start: 4, len: 8 };
        assert!(op.infer(&[t(&[8, 2])]).is_err());
    }

    #[test]
    fn part_slice_and_merge() {
        let ps = OpKind::PartSlice { axis: 0, parts: 4, halo: 0 };
        let part = ps.infer(&[t(&[32, 768])]).unwrap();
        assert_eq!(part.shape, Shape::from([8, 768]));
        let mg = OpKind::Merge { kind: MergeKind::Concat, axis: 0, parts: 4 };
        let out = mg.infer(std::slice::from_ref(&part)).unwrap();
        assert_eq!(out.shape, Shape::from([32, 768]));
        let mg = OpKind::Merge { kind: MergeKind::Sum, axis: 0, parts: 4 };
        let out = mg.infer(&[part]).unwrap();
        assert_eq!(out.shape, Shape::from([8, 768]));
    }

    #[test]
    fn embedding_and_ce() {
        let emb = OpKind::Embedding;
        let table = t(&[30522, 768]);
        let ids = TensorMeta::new([32, 512], DType::I32);
        let out = emb.infer(&[table, ids]).unwrap();
        assert_eq!(out.shape, Shape::from([32, 512, 768]));

        let ce = OpKind::CrossEntropy;
        let labels = TensorMeta::new([64], DType::I32);
        let out = ce.infer(&[t(&[64, 1000]), labels]).unwrap();
        assert_eq!(out.shape, Shape::scalar());
    }

    #[test]
    fn matmul_dim_links_match_paper() {
        // c[m,n] = sum_k a[m,k] b[k,n]: per §4.1, (⟨a,1⟩,⟨c,1⟩),
        // (⟨a,2⟩,⟨c,-1⟩), (⟨b,1⟩,⟨c,-1⟩), (⟨b,2⟩,⟨c,2⟩).
        let op = OpKind::MatMul { transpose_a: false, transpose_b: false };
        let inp = [t(&[4, 5]), t(&[5, 6])];
        let out = op.infer(&inp).unwrap();
        let links = op.input_dim_links(&inp, &out);
        assert_eq!(links[0], vec![DimLink::Spatial(0), DimLink::Reduce(0)]);
        assert_eq!(links[1], vec![DimLink::Reduce(0), DimLink::Spatial(1)]);
    }

    #[test]
    fn conv_dim_links_spatial_and_windowed() {
        let op = OpKind::Conv2d(Conv2dAttrs::same(1));
        let inp = [t(&[8, 64, 56, 56]), t(&[128, 64, 3, 3])];
        let out = op.infer(&inp).unwrap();
        let links = op.input_dim_links(&inp, &out);
        assert_eq!(links[0][0], DimLink::Spatial(0)); // batch
        assert_eq!(links[0][1], DimLink::Reduce(0)); // in channels
        // Stride-1 H/W are windowed with a k-1 halo (extension E1).
        assert_eq!(links[0][2], DimLink::Windowed { dim: 2, halo: 2 });
        assert_eq!(links[0][3], DimLink::Windowed { dim: 3, halo: 2 });
        assert_eq!(links[1][0], DimLink::Spatial(1)); // out channels
        // Strided convolutions keep H/W unlinked.
        let op = OpKind::Conv2d(Conv2dAttrs::strided(2, 1));
        let out = op.infer(&inp).unwrap();
        let links = op.input_dim_links(&inp, &out);
        assert_eq!(links[0][2], DimLink::Unlinked);
    }

    #[test]
    fn softmax_axis_not_splittable() {
        let op = OpKind::Softmax { axis: 3 };
        let out = op.infer(&[t(&[2, 4, 8, 8])]).unwrap();
        let ok = op.splittable_output_dims(&out);
        assert_eq!(ok, vec![true, true, true, false]);
    }

    #[test]
    fn conv_spatial_splittable_by_stride() {
        // Stride-1 convs admit halo splits along H/W (extension E1);
        // strided ones do not.
        let op = OpKind::Conv2d(Conv2dAttrs::same(1));
        let out = op.infer(&[t(&[8, 64, 56, 56]), t(&[128, 64, 3, 3])]).unwrap();
        assert_eq!(op.splittable_output_dims(&out), vec![true, true, true, true]);
        let op = OpKind::Conv2d(Conv2dAttrs::strided(2, 1));
        let out = op.infer(&[t(&[8, 64, 56, 56]), t(&[128, 64, 3, 3])]).unwrap();
        assert_eq!(op.splittable_output_dims(&out), vec![true, true, false, false]);
    }

    #[test]
    fn reshape_links_prefix_aligned() {
        // [2,3,4] -> [2,12]: dim 0 maps exactly; dim 1 (extent 3) is
        // the leading factor of the merged 12 = 3·4 at the matching
        // prefix boundary, so it links too; dim 2 sits at prefix 6,
        // which has no matching `to` boundary.
        let links = reshape_links(&Shape::from([2, 3, 4]), &Shape::from([2, 12]));
        assert_eq!(links, vec![DimLink::Spatial(0), DimLink::Spatial(1), DimLink::Unlinked]);
        // [6,4] -> [6,4] identity.
        let links = reshape_links(&Shape::from([6, 4]), &Shape::from([6, 4]));
        assert_eq!(links, vec![DimLink::Spatial(0), DimLink::Spatial(1)]);
    }

    #[test]
    fn reshape_links_leading_factor_split() {
        // The attention flatten/unflatten: [B·T, C] -> [B, T, H, hd].
        // The flattened row dim and B share the outermost axis; the
        // channel dim C = H·hd links to its leading factor H (a
        // contiguous head split).
        let links = reshape_links(&Shape::from([1024, 256]), &Shape::from([8, 128, 8, 32]));
        assert_eq!(links[0], DimLink::Spatial(0));
        assert_eq!(links[1], DimLink::Spatial(2), "C links to its leading factor H");
        // And back: [B, T, H, hd] -> [B·T, C].
        let links = reshape_links(&Shape::from([8, 128, 8, 32]), &Shape::from([1024, 256]));
        assert_eq!(links[0], DimLink::Spatial(0));
        assert_eq!(links[2], DimLink::Spatial(1), "H links back into C");
    }

    #[test]
    fn transpose_links_inverted() {
        let op = OpKind::Transpose { perm: vec![1, 0] };
        let inp = [t(&[3, 5])];
        let out = op.infer(&inp).unwrap();
        let links = op.input_dim_links(&inp, &out);
        assert_eq!(links[0], vec![DimLink::Spatial(1), DimLink::Spatial(0)]);
    }

    #[test]
    fn arity_checked() {
        let op = OpKind::Binary(BinaryKind::Add);
        assert!(matches!(op.infer(&[t(&[2])]), Err(OpError::Arity(_, 2, 1))));
    }

    #[test]
    fn swap_ops_preserve_meta() {
        let x = t(&[8, 8]);
        assert_eq!(OpKind::Store.infer(std::slice::from_ref(&x)).unwrap(), x);
        assert_eq!(OpKind::Load.infer(std::slice::from_ref(&x)).unwrap(), x);
        assert!(OpKind::Store.is_swap());
    }

    #[test]
    fn reduce_axes_counts() {
        assert_eq!(OpKind::MatMul { transpose_a: false, transpose_b: false }.num_reduce_axes(), 1);
        assert_eq!(OpKind::CrossEntropy.num_reduce_axes(), 2);
        assert_eq!(OpKind::Unary(UnaryKind::Relu).num_reduce_axes(), 0);
        assert_eq!(
            OpKind::Reduce { kind: ReduceKind::Sum, axes: vec![0, 2], keep_dims: false }
                .num_reduce_axes(),
            2
        );
    }
}
