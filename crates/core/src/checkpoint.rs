//! Search checkpoint/resume: periodic serialization of the
//! M-Optimizer's state so a killed search continues where it stopped
//! instead of starting over from the seed graph.
//!
//! Format: a versioned, line-oriented text file with no external
//! dependencies (the repo is fully offline). Floating-point values are
//! stored as bit patterns (`f64::to_bits` in hex) so a checkpoint
//! round-trip is bit-exact and resume preserves determinism. A state
//! — the incumbent, and each frontier entry — is one [`StateRecord`]:
//! **two** graph records plus the exact schedule, its base graph and
//! the overlaid (fission-applied) graph that was actually simulated.
//! On resume the stored schedule is
//! re-simulated rather than re-scheduled — re-scheduling could land on
//! a different (worse) evaluation than the one that won incumbency.
//!
//! The states of one search are a rewrite or two apart, so their graph
//! records are almost the same lines. A checkpoint — in memory and in
//! the file alike — holds every distinct record line once, in its
//! `lines` table, and a state's two records as indices into it
//! (consecutive indices as `first-last` in the file); restoring puts a
//! record's text back together and hands it to the one record parser
//! ([`magis_graph::io::from_record`]). The table is numbered by the
//! text of a line ([`RecordLines`]) and the file lists it in the order
//! its sections first name a line, so the bytes are a function of the
//! search state alone — not of which states still share storage
//! (DESIGN.md §5d).
//!
//! A checkpoint also carries the **frontier**: every entry still on
//! the priority queue, each with its sequence number, staleness flag,
//! and the same order/F-Tree/graph-record block as the incumbent. So
//! every resume is *exact* — the queue, seen-set, and sequence counter
//! are reconstructed verbatim, and a killed-and-resumed search replays
//! the identical trajectory and finishes with the incumbent, counts
//! and timeline of an uninterrupted run (given deterministic stopping,
//! i.e. a candidate cap rather than wall clock; the evaluation cache
//! is not stored, and with it on a Pareto point may differ in its last
//! latency bit — see [`crate::optimizer`]). An empty frontier is a
//! finished search, and resumes as one.
//!
//! A checkpoint is **driver-tagged**: a `driver` line right after the
//! header names the search engine that wrote it (`greedy` or `mcts`),
//! and an MCTS checkpoint additionally stores the tree metadata
//! (parent/visit/reward per node, plus the RNG state) beside the
//! frontier, whose entries then carry the node states. Resume restores
//! the checkpoint's engine regardless of the caller's configured
//! driver.
//!
//! One format version is read and written (the header line); any other
//! header is a typed [`CheckpointError::UnsupportedVersion`].
//!
//! The optimizer's configuration (objective, budget, thread count,
//! rule set) is deliberately **not** stored: the resuming caller's
//! config is authoritative, so a checkpoint can be resumed under a
//! different budget or thread count without surgery.

use crate::driver::DriverKind;
use crate::fission::FissionSpec;
use crate::ftree::{FTree, FTreeNode};
use crate::state::{EvalContext, EvalError, MState};
use magis_graph::graph::NodeId;
use magis_graph::io::{self, RecordError, RecordLines};
use magis_graph::GraphView;
use magis_sched::{validate_schedule, ScheduleError};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;
use std::str::FromStr;

const CKPT_HEADER: &str = "magis-checkpoint v5";
const CKPT_FOOTER: &str = "ckpt-end";

/// Why loading or restoring a checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (path kept in the message).
    Io(String),
    /// The first line is not the one header this build reads and
    /// writes: an older or newer format, or not a checkpoint at all.
    UnsupportedVersion {
        /// The header line as found.
        found: String,
    },
    /// A malformed line in the checkpoint body.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The embedded graph record failed to parse or validate.
    Record(RecordError),
    /// The stored schedule is not a valid schedule of the stored graph.
    Schedule(ScheduleError),
    /// Re-simulating the stored incumbent failed.
    Eval(EvalError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O: {msg}"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint version: header '{found}' (this build reads '{CKPT_HEADER}')"
            ),
            CheckpointError::Parse { line, msg } => {
                write!(f, "checkpoint line {line}: {msg}")
            }
            CheckpointError::Record(e) => write!(f, "checkpoint graph record: {e}"),
            CheckpointError::Schedule(e) => write!(f, "checkpoint schedule: {e}"),
            CheckpointError::Eval(e) => write!(f, "checkpoint re-evaluation: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        CheckpointError::Record(e)
    }
}

impl From<ScheduleError> for CheckpointError {
    fn from(e: ScheduleError) -> Self {
        CheckpointError::Schedule(e)
    }
}

impl From<EvalError> for CheckpointError {
    fn from(e: EvalError) -> Self {
        CheckpointError::Eval(e)
    }
}

/// Search-progress counters carried across a resume so stats stay
/// cumulative over the whole (interrupted) search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointCounters {
    /// States expanded.
    pub expanded: u64,
    /// Candidates evaluated.
    pub evaluated: u64,
    /// Candidates generated.
    pub candidates: u64,
    /// Candidates filtered as duplicates.
    pub filtered: u64,
    /// Candidate evaluations that panicked (sandboxed).
    pub panicked: u64,
    /// Candidates rejected for defective costs.
    pub cost_rejections: u64,
    /// Candidates rejected by invariant enforcement.
    pub invariant_rejections: u64,
    /// Candidates skipped because their rule family was quarantined.
    pub quarantined_candidates: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed.
    pub checkpoint_failures: u64,
}

/// One M-State as a checkpoint stores it — the incumbent and every
/// frontier entry alike: the exact schedule, the F-Tree, and two graph
/// records (the base graph and the overlaid graph that was simulated),
/// each as the indices of its lines in the checkpoint's table
/// ([`SearchCheckpoint::lines`]).
#[derive(Debug, Clone, Default)]
pub struct StateRecord {
    /// The state's schedule as arena indices into its eval graph.
    pub order: Vec<usize>,
    /// The state's F-Tree nodes.
    pub ftree_nodes: Vec<FTreeNode>,
    /// Graph record of the state's base graph, line by line.
    pub base_record: Vec<u32>,
    /// Graph record of the state's overlaid (simulated) graph.
    pub eval_record: Vec<u32>,
}

/// One driver-frontier entry captured in a checkpoint: the state plus
/// the bookkeeping (sequence number, staleness) needed to reconstruct
/// the queue or tree verbatim.
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// The entry's queue sequence number (FIFO tiebreak within equal
    /// objective keys — restoring it preserves pop order exactly) or
    /// MCTS node id.
    pub seq: u64,
    /// Whether the state's F-Tree needed re-analysis before expansion.
    pub tree_stale: bool,
    /// The entry's state.
    pub state: StateRecord,
}

/// Per-node MCTS tree metadata stored beside a frontier entry.
/// The entry at the same position in the frontier carries the node's
/// state; this struct carries everything else the tree needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsNodeMeta {
    /// Arena index of the parent node; `None` for the root.
    pub parent: Option<u64>,
    /// The candidate index (within the parent's sorted batch) that
    /// produced this node — the UCT tie-break key.
    pub cand_index: u64,
    /// Visit count accumulated by backpropagation.
    pub visits: u64,
    /// Total reward accumulated by backpropagation.
    pub reward_sum: f64,
    /// Whether the node's candidate batch has been expanded.
    pub expanded: bool,
}

/// MCTS engine state stored in a checkpoint: the driver's RNG state
/// plus one [`MctsNodeMeta`] per frontier entry (in arena order).
/// Restoring it resumes the tree — and the rollout RNG stream — exactly
/// where the checkpoint left off.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsCheckpoint {
    /// Raw RNG state ([`magis_util::rng::SmallRng::state`]).
    pub rng_state: u64,
    /// Tree metadata, index-aligned with the checkpoint's frontier.
    pub nodes: Vec<MctsNodeMeta>,
}

/// A serializable snapshot of the M-Optimizer's search state. The
/// default value is the state of a search that has not started.
#[derive(Debug, Clone, Default)]
pub struct SearchCheckpoint {
    /// RNG seed of the search (naïve-fission ablation determinism).
    pub rng_seed: u64,
    /// `(peak_bytes, latency)` of the unoptimized seed state.
    pub seed_cost: (u64, f64),
    /// `(peak_bytes, latency)` of the incumbent at checkpoint time.
    pub best_cost: (u64, f64),
    /// Cumulative progress counters.
    pub counters: CheckpointCounters,
    /// Pareto frontier points `(peak_bytes, latency)`.
    pub pareto: Vec<(u64, f64)>,
    /// Graph hashes already explored (includes the incumbent's own).
    pub seen: Vec<u64>,
    /// Quarantine strikes per rule family (`Transform::sort_key().0`).
    pub quarantine: Vec<(u8, u32)>,
    /// Every distinct graph-record line of the checkpoint's states,
    /// once ([`RecordLines::into_lines`] of the `RecordLines` they were
    /// all recorded through, or the file's table). The records of
    /// `best` and of the `frontier` entries index it.
    pub lines: Vec<String>,
    /// The incumbent.
    pub best: StateRecord,
    /// The driver's sequence counter (greedy) or node count (MCTS).
    pub next_seq: u64,
    /// The driver frontier at checkpoint time, sorted by sequence
    /// number; empty once the search has run dry.
    pub frontier: Vec<FrontierEntry>,
    /// The search engine that wrote this checkpoint. Resume restores
    /// this engine, not the caller's configured one.
    pub driver: DriverKind,
    /// MCTS tree metadata (MCTS checkpoints only; resuming one
    /// without it is an error).
    pub mcts: Option<MctsCheckpoint>,
}

fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// `+`-joined list of usizes; `-` for empty.
fn join_plus<I: IntoIterator<Item = usize>>(it: I) -> String {
    let parts: Vec<String> = it.into_iter().map(|v| v.to_string()).collect();
    if parts.is_empty() { "-".to_string() } else { parts.join("+") }
}

/// `-` for `None`.
fn opt_str<T: ToString>(v: Option<T>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// `tag <count>` followed by the tokens, 16 to a line, each line
/// prefixed with `short`.
fn encode_chunked<T>(
    out: &mut String,
    tag: &str,
    short: char,
    count: usize,
    tokens: impl Iterator<Item = T>,
    fmt: impl Fn(&mut String, T),
) {
    let _ = writeln!(out, "{tag} {count}");
    let mut in_line = 0;
    for token in tokens {
        if in_line == 16 {
            out.push('\n');
            in_line = 0;
        }
        if in_line == 0 {
            out.push(short);
        }
        out.push(' ');
        fmt(out, token);
        in_line += 1;
    }
    if in_line > 0 {
        out.push('\n');
    }
}

/// The maximal runs of consecutive numbers in `ids`, as `(first, last)`.
fn runs(ids: impl Iterator<Item = u32>) -> impl Iterator<Item = (u32, u32)> {
    let mut ids = ids.peekable();
    std::iter::from_fn(move || {
        let first = ids.next()?;
        let mut last = first;
        while ids.next_if_eq(&(last + 1)).is_some() {
            last += 1;
        }
        Some((first, last))
    })
}

/// The `lines` table of a file being encoded: the checkpoint's lines,
/// numbered in the order the file's graph sections first name them
/// (a line no section names is left out).
struct FileLines {
    /// By line of the checkpoint: its number in the file.
    number: Vec<Option<u32>>,
    /// By number in the file: the line of the checkpoint.
    named: Vec<u32>,
}

impl FileLines {
    /// A graph section: the record's lines by their numbers in the
    /// file. A state differs from the one written before it in a few
    /// lines, so most of a record is a few runs.
    fn encode_graph(&mut self, out: &mut String, tag: &str, rec: &[u32]) {
        let ids = rec.iter().map(|&line| {
            *self.number[line as usize].get_or_insert_with(|| {
                self.named.push(line);
                self.named.len() as u32 - 1
            })
        });
        encode_chunked(out, tag, 'g', rec.len(), runs(ids), |out, (first, last)| {
            let _ = if first == last { write!(out, "{first}") } else { write!(out, "{first}-{last}") };
        });
    }
}

/// A line cursor over a checkpoint's text. `at` counts the lines
/// consumed, which is the 1-based number of the line an error is about.
struct Cursor<'a> {
    lines: Vec<&'a str>,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: String) -> CheckpointError {
        CheckpointError::Parse { line: self.at, msg }
    }

    fn next(&mut self) -> Result<&'a str, CheckpointError> {
        let line = self.lines.get(self.at).copied();
        self.at += 1;
        line.ok_or_else(|| self.err("unexpected end of checkpoint".to_string()))
    }

    /// The next line, which must be `key` followed by exactly `arity`
    /// fields; returns the fields.
    fn kv(&mut self, key: &str, arity: usize) -> Result<Vec<&'a str>, CheckpointError> {
        let line = self.next()?;
        let mut toks = line.split_whitespace();
        let head = toks.next();
        let fields: Vec<&str> = toks.collect();
        if head != Some(key) || fields.len() != arity {
            return Err(self.err(format!("expected '{key}' with {arity} fields, got '{line}'")));
        }
        Ok(fields)
    }

    /// The next line as `key <count>`.
    fn count(&mut self, key: &str) -> Result<usize, CheckpointError> {
        let t = self.kv(key, 1)?;
        self.num(t[0], key)
    }

    fn num<T: FromStr>(&self, tok: &str, what: &str) -> Result<T, CheckpointError> {
        tok.parse().map_err(|_| self.err(format!("bad {what} '{tok}'")))
    }

    /// `-` for `None`.
    fn opt_num<T: FromStr>(&self, tok: &str, what: &str) -> Result<Option<T>, CheckpointError> {
        if tok == "-" { Ok(None) } else { self.num(tok, what).map(Some) }
    }

    fn hex(&self, tok: &str, what: &str) -> Result<u64, CheckpointError> {
        u64::from_str_radix(tok, 16).map_err(|_| self.err(format!("bad {what} '{tok}'")))
    }

    fn f64_hex(&self, tok: &str, what: &str) -> Result<f64, CheckpointError> {
        self.hex(tok, what).map(f64::from_bits)
    }

    fn flag(&self, tok: &str, what: &str) -> Result<bool, CheckpointError> {
        match tok {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.err(format!("bad {what} flag '{other}'"))),
        }
    }

    /// `+`-joined list of usizes; `-` for empty.
    fn plus(&self, tok: &str, what: &str) -> Result<Vec<usize>, CheckpointError> {
        if tok == "-" {
            return Ok(Vec::new());
        }
        tok.split('+').map(|t| self.num(t, what)).collect()
    }

    /// A `key=value` field's value.
    fn field<'t>(&self, tok: &'t str, key: &str) -> Result<&'t str, CheckpointError> {
        tok.strip_prefix(key)
            .and_then(|t| t.strip_prefix('='))
            .ok_or_else(|| self.err(format!("expected {key}= field, got '{tok}'")))
    }

    /// Reads what [`encode_chunked`] wrote; `parse` appends the values
    /// of one token.
    fn chunked<T>(
        &mut self,
        tag: &str,
        short: &str,
        mut parse: impl FnMut(&Self, &str, &mut Vec<T>) -> Result<(), CheckpointError>,
    ) -> Result<Vec<T>, CheckpointError> {
        let n = self.count(tag)?;
        let mut vals = Vec::new();
        while vals.len() < n {
            let line = self.next()?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some(short) {
                return Err(self.err(format!("expected '{short}' {tag} line, got '{line}'")));
            }
            for tok in toks {
                parse(self, tok, &mut vals)?;
            }
            if vals.len() > n {
                return Err(self.err(format!("more {tag} entries than declared ({n})")));
            }
        }
        Ok(vals)
    }

    /// The `lines` table: distinct lines. The declared count sizes
    /// nothing — a table shorter or longer than it runs into a line of
    /// the wrong kind.
    fn line_table(&mut self) -> Result<Vec<String>, CheckpointError> {
        let n = self.count("lines")?;
        let mut table = Vec::new();
        let mut distinct = HashSet::new();
        while table.len() < n {
            let line = self.next()?;
            let text = line
                .strip_prefix("l ")
                .ok_or_else(|| self.err(format!("expected an 'l' line of the table, got '{line}'")))?;
            if !distinct.insert(text) {
                return Err(self.err(format!("the table holds '{text}' twice")));
            }
            table.push(text.to_string());
        }
        Ok(table)
    }

    /// Reads what [`FileLines::encode_graph`] wrote.
    fn graph(&mut self, tag: &str, named: &mut NamedLines) -> Result<Vec<u32>, CheckpointError> {
        named.sections += 1;
        let (section, last_in) = (named.sections, &mut named.last_in);
        self.chunked(tag, "g", |c, tok, rec| {
            let (first, last) = tok.split_once('-').unwrap_or((tok, tok));
            let (first, last): (u32, u32) = (c.num(first, "line index")?, c.num(last, "line index")?);
            // Checked before the run is walked: it cannot ask for more
            // than the table has.
            if first > last || last as usize >= last_in.len() {
                return Err(c.err(format!("{tag} names lines '{tok}' of a table of {}", last_in.len())));
            }
            for i in first..=last {
                // No record repeats a line (its slots are distinct),
                // and a file that did could ask for far more text than
                // it holds when the record is put back together.
                if std::mem::replace(&mut last_in[i as usize], section) == section {
                    return Err(c.err(format!("{tag} names line {i} twice")));
                }
                rec.push(i);
            }
            Ok(())
        })
    }
}

/// For each line of the table of a file being decoded, the last graph
/// section (counted from 1) that named it.
struct NamedLines {
    last_in: Vec<usize>,
    sections: usize,
}

impl FrontierEntry {
    /// Captures `state` as the frontier entry numbered `seq`, its
    /// graphs recorded through the checkpoint's `lines`.
    pub fn of(seq: u64, state: &MState, lines: &mut RecordLines) -> FrontierEntry {
        FrontierEntry { seq, tree_stale: state.tree_stale, state: StateRecord::of(state, lines) }
    }
}

impl StateRecord {
    /// Captures the serializable parts of `state`. `lines` is the one
    /// [`RecordLines`] of the checkpoint being written: every state of
    /// a checkpoint is recorded through it, so a node the states share
    /// is rendered once.
    ///
    /// A stale F-Tree is stored as empty: a `tree_stale` state's tree
    /// is discarded and rebuilt by analysis before any expansion, and
    /// an inherited stale tree may dangle (a TASO rewrite can remove
    /// base nodes its spec sets still reference), which would fail the
    /// restore-time validation for a tree that never gets used.
    pub fn of(state: &MState, lines: &mut RecordLines) -> StateRecord {
        StateRecord {
            order: state.eval.order.iter().map(|v| v.index()).collect(),
            ftree_nodes: if state.tree_stale { Vec::new() } else { state.ftree.nodes().to_vec() },
            base_record: lines.record(&state.base),
            eval_record: lines.record(&state.eval.graph),
        }
    }

    /// Rebuilds the [`MState`]: both graph records restored and
    /// re-validated, F-Tree references checked against the base graph,
    /// the stored schedule validated against the eval graph
    /// (topological order, exactly-once coverage) and re-simulated
    /// under `ctx` to reproduce the evaluation. `lines` is the table the
    /// records index ([`SearchCheckpoint::lines`]). The state comes
    /// back `tree_stale`.
    ///
    /// # Errors
    ///
    /// Any corruption — dangling edges, a schedule that no longer
    /// topo-sorts the graph, defective re-simulated costs — surfaces
    /// as a typed [`CheckpointError`].
    pub fn restore(&self, lines: &[String], ctx: &EvalContext) -> Result<MState, CheckpointError> {
        // A record goes to its parser as the text it is the lines of.
        let graph = |rec: &[u32]| {
            let mut text = String::new();
            for &i in rec {
                let line = lines.get(i as usize).ok_or_else(|| CheckpointError::Parse {
                    line: 0,
                    msg: format!("a graph record names line {i} of a table of {}", lines.len()),
                })?;
                text.push_str(line);
                text.push('\n');
            }
            Ok::<_, CheckpointError>(io::from_record(&text)?)
        };
        let base = graph(&self.base_record)?;
        let eval_graph = graph(&self.eval_record)?;
        for (i, n) in self.ftree_nodes.iter().enumerate() {
            if let Some(&v) = n.spec.set.iter().find(|v| !base.contains(**v)) {
                return Err(CheckpointError::Parse {
                    line: 0,
                    msg: format!("ftree node {i} references node {v} absent from the base graph"),
                });
            }
        }
        let order: Vec<NodeId> = self.order.iter().map(|&i| NodeId::from_index(i)).collect();
        validate_schedule(&eval_graph, &order)?;
        let ftree = FTree::from_nodes(self.ftree_nodes.clone());
        Ok(MState::resume(base, ftree, eval_graph, order, ctx)?)
    }

    /// The `order` and `ftree` sections. (The incumbent's two halves
    /// sit apart in the file — frontier and MCTS sections between —
    /// a frontier entry's follow each other.)
    fn encode_schedule(&self, out: &mut String) {
        encode_chunked(out, "order", 'o', self.order.len(), self.order.iter(), |out, i| {
            let _ = write!(out, "{i}");
        });
        out.push_str(&format!("ftree {}\n", self.ftree_nodes.len()));
        for n in &self.ftree_nodes {
            let dims: Vec<String> =
                n.spec.dims.iter().map(|(v, d)| format!("{}:{}", v.index(), d)).collect();
            out.push_str(&format!(
                "f {} {} {} ch={} set={} dims={}\n",
                opt_str(n.parent),
                n.level,
                n.spec.parts,
                join_plus(n.children.iter().copied()),
                join_plus(n.spec.set.iter().map(|v| v.index())),
                if dims.is_empty() { "-".to_string() } else { dims.join("+") },
            ));
        }
    }

    fn decode_schedule(&mut self, cur: &mut Cursor<'_>) -> Result<(), CheckpointError> {
        self.order = cur.chunked("order", "o", |c, tok, order| {
            order.push(c.num(tok, "order index")?);
            Ok(())
        })?;
        let nf = cur.count("ftree")?;
        for _ in 0..nf {
            let t = cur.kv("f", 6)?;
            let set = cur.plus(cur.field(t[4], "set")?, "set node")?;
            let mut dims: BTreeMap<NodeId, i32> = BTreeMap::new();
            let dims_tok = cur.field(t[5], "dims")?;
            for pair in dims_tok.split('+').filter(|_| dims_tok != "-") {
                let (v, d) = pair
                    .split_once(':')
                    .ok_or_else(|| cur.err(format!("bad dims pair '{pair}'")))?;
                dims.insert(NodeId::from_index(cur.num(v, "dims node")?), cur.num(d, "dims value")?);
            }
            self.ftree_nodes.push(FTreeNode {
                spec: FissionSpec {
                    set: set.into_iter().map(NodeId::from_index).collect::<BTreeSet<_>>(),
                    dims,
                    parts: cur.num(t[2], "parts")?,
                },
                parent: cur.opt_num(t[0], "parent")?,
                children: cur.plus(cur.field(t[3], "ch")?, "child index")?,
                level: cur.num(t[1], "level")?,
            });
        }
        // Parent/children indices must stay inside the forest.
        for (i, n) in self.ftree_nodes.iter().enumerate() {
            if let Some(&j) = n.parent.iter().chain(&n.children).find(|&&j| j >= nf) {
                return Err(cur.err(format!("ftree node {i} references out-of-range node {j}")));
            }
        }
        Ok(())
    }

    fn encode_graphs(&self, out: &mut String, lines: &mut FileLines) {
        lines.encode_graph(out, "base-graph", &self.base_record);
        lines.encode_graph(out, "eval-graph", &self.eval_record);
    }

    fn decode_graphs(&mut self, cur: &mut Cursor<'_>, named: &mut NamedLines) -> Result<(), CheckpointError> {
        self.base_record = cur.graph("base-graph", named)?;
        self.eval_record = cur.graph("eval-graph", named)?;
        Ok(())
    }
}

impl SearchCheckpoint {
    /// Serializes the checkpoint to its text form.
    ///
    /// # Panics
    ///
    /// Panics if a state's record names a line [`Self::lines`] does not
    /// have (a checkpoint put together by hand, wrongly).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(CKPT_HEADER);
        out.push('\n');
        out.push_str(&format!("driver {}\n", self.driver.as_str()));
        out.push_str(&format!("rng {:016x}\n", self.rng_seed));
        out.push_str(&format!("seed_cost {} {}\n", self.seed_cost.0, f64_hex(self.seed_cost.1)));
        out.push_str(&format!("best_cost {} {}\n", self.best_cost.0, f64_hex(self.best_cost.1)));
        let c = &self.counters;
        out.push_str(&format!(
            "counters {} {} {} {} {} {} {} {} {} {}\n",
            c.expanded,
            c.evaluated,
            c.candidates,
            c.filtered,
            c.panicked,
            c.cost_rejections,
            c.invariant_rejections,
            c.quarantined_candidates,
            c.checkpoints_written,
            c.checkpoint_failures
        ));
        out.push_str(&format!("pareto {}\n", self.pareto.len()));
        for &(m, l) in &self.pareto {
            out.push_str(&format!("p {m} {}\n", f64_hex(l)));
        }
        encode_chunked(&mut out, "seen", 's', self.seen.len(), self.seen.iter(), |out, h| {
            let _ = write!(out, "{h:016x}");
        });
        out.push_str(&format!("quarantine {}\n", self.quarantine.len()));
        for &(fam, strikes) in &self.quarantine {
            out.push_str(&format!("q {fam} {strikes}\n"));
        }
        // The states name graph-record lines by number in the file, so
        // the table they number as they are written goes in front.
        let mut lines = FileLines { number: vec![None; self.lines.len()], named: Vec::new() };
        let mut states = String::new();
        self.best.encode_schedule(&mut states);
        states.push_str(&format!("next_seq {}\n", self.next_seq));
        states.push_str(&format!("frontier {}\n", self.frontier.len()));
        for e in &self.frontier {
            states.push_str(&format!("entry {} {}\n", e.seq, e.tree_stale as u8));
            e.state.encode_schedule(&mut states);
            e.state.encode_graphs(&mut states, &mut lines);
        }
        if let Some(m) = &self.mcts {
            states.push_str(&format!("mcts {} {:016x}\n", m.nodes.len(), m.rng_state));
            for n in &m.nodes {
                states.push_str(&format!(
                    "m {} {} {} {} {}\n",
                    opt_str(n.parent),
                    n.cand_index,
                    n.visits,
                    f64_hex(n.reward_sum),
                    n.expanded as u8
                ));
            }
        }
        self.best.encode_graphs(&mut states, &mut lines);
        let _ = writeln!(out, "lines {}", lines.named.len());
        for &line in &lines.named {
            let _ = writeln!(out, "l {}", self.lines[line as usize]);
        }
        out.push_str(&states);
        out.push_str(CKPT_FOOTER);
        out.push('\n');
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on any structural defect:
    /// version mismatch, truncation, malformed lines, bad counts.
    pub fn decode(text: &str) -> Result<SearchCheckpoint, CheckpointError> {
        let mut cur = Cursor { lines: text.lines().collect(), at: 0 };
        let header = cur.next()?.trim();
        if header != CKPT_HEADER {
            return Err(CheckpointError::UnsupportedVersion { found: header.to_string() });
        }
        let mut ck = SearchCheckpoint::default();

        let t = cur.kv("driver", 1)?;
        ck.driver = DriverKind::parse(t[0]).ok_or_else(|| cur.err(format!("unknown driver '{}'", t[0])))?;
        let t = cur.kv("rng", 1)?;
        ck.rng_seed = cur.hex(t[0], "rng seed")?;
        let t = cur.kv("seed_cost", 2)?;
        ck.seed_cost = (cur.num(t[0], "seed peak")?, cur.f64_hex(t[1], "seed latency")?);
        let t = cur.kv("best_cost", 2)?;
        ck.best_cost = (cur.num(t[0], "best peak")?, cur.f64_hex(t[1], "best latency")?);

        let t = cur.kv("counters", 10)?;
        ck.counters = CheckpointCounters {
            expanded: cur.num(t[0], "expanded")?,
            evaluated: cur.num(t[1], "evaluated")?,
            candidates: cur.num(t[2], "candidates")?,
            filtered: cur.num(t[3], "filtered")?,
            panicked: cur.num(t[4], "panicked")?,
            cost_rejections: cur.num(t[5], "cost_rejections")?,
            invariant_rejections: cur.num(t[6], "invariant_rejections")?,
            quarantined_candidates: cur.num(t[7], "quarantined_candidates")?,
            checkpoints_written: cur.num(t[8], "checkpoints_written")?,
            checkpoint_failures: cur.num(t[9], "checkpoint_failures")?,
        };

        for _ in 0..cur.count("pareto")? {
            let t = cur.kv("p", 2)?;
            ck.pareto.push((cur.num(t[0], "pareto peak")?, cur.f64_hex(t[1], "pareto latency")?));
        }
        ck.seen = cur.chunked("seen", "s", |c, tok, seen| {
            seen.push(c.hex(tok, "seen hash")?);
            Ok(())
        })?;
        for _ in 0..cur.count("quarantine")? {
            let t = cur.kv("q", 2)?;
            let strikes: u64 = cur.num(t[1], "strikes")?;
            ck.quarantine.push((cur.num(t[0], "family")?, strikes.min(u32::MAX as u64) as u32));
        }

        ck.lines = cur.line_table()?;
        let mut named = NamedLines { last_in: vec![0; ck.lines.len()], sections: 0 };
        ck.best.decode_schedule(&mut cur)?;
        let t = cur.kv("next_seq", 1)?;
        ck.next_seq = cur.num(t[0], "next_seq")?;
        for _ in 0..cur.count("frontier")? {
            let t = cur.kv("entry", 2)?;
            let mut e = FrontierEntry {
                seq: cur.num(t[0], "entry seq")?,
                tree_stale: cur.flag(t[1], "entry staleness")?,
                state: StateRecord::default(),
            };
            e.state.decode_schedule(&mut cur)?;
            e.state.decode_graphs(&mut cur, &mut named)?;
            ck.frontier.push(e);
        }
        // An optional MCTS tree section follows the frontier.
        if cur.lines.get(cur.at).is_some_and(|l| l.starts_with("mcts ")) {
            let t = cur.kv("mcts", 2)?;
            let nn: usize = cur.num(t[0], "mcts node count")?;
            let mut m = MctsCheckpoint { rng_state: cur.hex(t[1], "mcts rng state")?, nodes: Vec::new() };
            for _ in 0..nn {
                let t = cur.kv("m", 5)?;
                m.nodes.push(MctsNodeMeta {
                    parent: cur.opt_num(t[0], "mcts parent")?,
                    cand_index: cur.num(t[1], "mcts cand_index")?,
                    visits: cur.num(t[2], "mcts visits")?,
                    reward_sum: cur.f64_hex(t[3], "mcts reward")?,
                    expanded: cur.flag(t[4], "mcts expanded")?,
                });
            }
            ck.mcts = Some(m);
        }
        ck.best.decode_graphs(&mut cur, &mut named)?;

        let footer = cur.next()?;
        if footer.trim() != CKPT_FOOTER {
            return Err(cur.err(format!("expected footer '{CKPT_FOOTER}', got '{footer}'")));
        }
        Ok(ck)
    }

    /// Writes the checkpoint to `path` via a temp-file + rename so a
    /// crash mid-write never leaves a torn checkpoint behind. Returns
    /// the size of the file in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<usize, CheckpointError> {
        let tmp = path.with_extension("tmp");
        let text = self.encode();
        fs::write(&tmp, &text)
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))?;
        Ok(text.len())
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns a typed error for I/O failures or any structural defect.
    pub fn read_from(path: &Path) -> Result<SearchCheckpoint, CheckpointError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Rebuilds the incumbent [`MState`] ([`StateRecord::restore`]).
    ///
    /// # Errors
    ///
    /// Any corruption surfaces as a typed [`CheckpointError`].
    pub fn restore_state(&self, ctx: &EvalContext) -> Result<MState, CheckpointError> {
        self.best.restore(&self.lines, ctx)
    }

    /// Rebuilds the checkpointed frontier: every entry is restored
    /// through the same validation/re-simulation pipeline as the
    /// incumbent, with its checkpointed staleness flag and sequence
    /// number reinstated. Returns `(seq, state)` pairs in stored
    /// (sequence) order; empty for a finished search.
    ///
    /// # Errors
    ///
    /// Any corrupt entry fails the whole restore with a typed
    /// [`CheckpointError`] — a partially restored frontier would
    /// silently diverge from the checkpointed trajectory.
    pub fn restore_frontier(&self, ctx: &EvalContext) -> Result<Vec<(u64, MState)>, CheckpointError> {
        self.frontier
            .iter()
            .map(|e| {
                let mut state = e.state.restore(&self.lines, ctx)?;
                // A frontier entry must come back with the exact flag
                // it was queued with, or the resumed expansion would
                // re-analyze where the original didn't (diverging the
                // trajectory).
                state.tree_stale = e.tree_stale;
                Ok((e.seq, state))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EvalContext;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn small_state() -> MState {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([128, 64], "x");
        for i in 0..4 {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        MState::initial(b.finish(), &EvalContext::default())
    }

    fn checkpoint_of(s: &MState) -> SearchCheckpoint {
        let mut lines = RecordLines::default();
        let best = StateRecord::of(s, &mut lines);
        SearchCheckpoint {
            rng_seed: 0x5eed,
            seed_cost: s.cost(),
            best_cost: s.cost(),
            counters: CheckpointCounters { expanded: 3, evaluated: 17, ..Default::default() },
            pareto: vec![s.cost(), (s.cost().0 / 2, s.cost().1 * 2.0)],
            seen: vec![1, 2, 0xdeadbeef],
            quarantine: vec![(4, 2)],
            lines: lines.into_lines(),
            best,
            next_seq: 0,
            frontier: Vec::new(),
            driver: DriverKind::Greedy,
            mcts: None,
        }
    }

    /// A frontier entry holding the incumbent's state once more.
    fn frontier_entry_of(c: &SearchCheckpoint, seq: u64, tree_stale: bool) -> FrontierEntry {
        FrontierEntry { seq, tree_stale, state: c.best.clone() }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let s = small_state();
        let c = checkpoint_of(&s);
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.rng_seed, c.rng_seed);
        assert_eq!(d.seed_cost.0, c.seed_cost.0);
        assert_eq!(d.seed_cost.1.to_bits(), c.seed_cost.1.to_bits());
        assert_eq!(d.best_cost.1.to_bits(), c.best_cost.1.to_bits());
        assert_eq!(d.counters, c.counters);
        assert_eq!(d.pareto.len(), c.pareto.len());
        assert_eq!(d.seen, c.seen);
        assert_eq!(d.quarantine, c.quarantine);
        assert_eq!(d.best.order, c.best.order);
        assert_eq!(d.lines, c.lines);
        assert_eq!(d.best.base_record, c.best.base_record);
        assert_eq!(d.best.eval_record, c.best.eval_record);
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(d.encode(), text);
    }

    #[test]
    fn frontier_round_trips_and_restores() {
        let ctx = EvalContext::default();
        let s = small_state();
        let mut c = checkpoint_of(&s);
        c.next_seq = 7;
        c.frontier = vec![frontier_entry_of(&c, 2, true), frontier_entry_of(&c, 5, false)];
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.next_seq, 7);
        assert_eq!(d.frontier.len(), 2);
        assert_eq!(d.frontier[0].seq, 2);
        assert!(d.frontier[0].tree_stale);
        assert_eq!(d.frontier[1].seq, 5);
        assert!(!d.frontier[1].tree_stale);
        assert_eq!(d.encode(), text, "frontier re-encode is byte-identical");
        let restored = d.restore_frontier(&ctx).unwrap();
        assert_eq!(restored.len(), 2);
        let (seq, st) = &restored[0];
        assert_eq!(*seq, 2);
        assert!(st.tree_stale);
        assert_eq!(st.eval.latency.to_bits(), s.eval.latency.to_bits());
        assert_eq!(st.eval.peak_bytes, s.eval.peak_bytes);
        // The staleness flag is reinstated verbatim, not forced on.
        assert!(!restored[1].1.tree_stale);
        // A corrupt frontier entry fails the whole restore.
        let mut bad = d.clone();
        bad.frontier[1].state.order[0] = 9999;
        assert!(bad.restore_frontier(&ctx).is_err());
    }

    #[test]
    fn restore_reproduces_evaluation() {
        let ctx = EvalContext::default();
        let s = small_state();
        let c = checkpoint_of(&s);
        let r = SearchCheckpoint::decode(&c.encode()).unwrap();
        let restored = r.restore_state(&ctx).unwrap();
        assert_eq!(restored.eval.latency.to_bits(), s.eval.latency.to_bits());
        assert_eq!(restored.eval.peak_bytes, s.eval.peak_bytes);
        assert_eq!(restored.eval.order, s.eval.order);
        assert!(restored.tree_stale, "resume must re-analyze the F-Tree");
        restored.base.validate().unwrap();
        restored.eval.graph.validate().unwrap();
    }

    #[test]
    fn mcts_checkpoints_round_trip() {
        let s = small_state();
        let mut c = checkpoint_of(&s);
        c.driver = DriverKind::Mcts;
        c.next_seq = 2;
        c.frontier = vec![frontier_entry_of(&c, 0, false), frontier_entry_of(&c, 1, false)];
        c.mcts = Some(MctsCheckpoint {
            rng_state: 0xdead_beef_0bad_cafe,
            nodes: vec![
                MctsNodeMeta {
                    parent: None,
                    cand_index: 0,
                    visits: 7,
                    reward_sum: 1.25,
                    expanded: true,
                },
                MctsNodeMeta {
                    parent: Some(0),
                    cand_index: 3,
                    visits: 2,
                    reward_sum: 0.5,
                    expanded: false,
                },
            ],
        });
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.driver, DriverKind::Mcts);
        assert_eq!(d.mcts, c.mcts);
        assert_eq!(d.encode(), text, "MCTS re-encode is byte-identical");
        // A corrupt driver tag is rejected.
        assert!(SearchCheckpoint::decode(&text.replacen("driver mcts", "driver dfs", 1)).is_err());
        // A corrupt tree line is rejected.
        assert!(SearchCheckpoint::decode(&text.replacen("m - 0 7", "m - x 7", 1)).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let s = small_state();
        let text = checkpoint_of(&s).encode();
        // Bad header: the four retired formats, a version from the
        // future and a non-checkpoint first line are refused by name,
        // not parsed.
        let versions = [1, 2, 3, 4, 9].map(|v| format!("magis-checkpoint v{v}"));
        for header in versions.iter().map(String::as_str).chain(["\u{7f}ELF garbage"]) {
            let err = SearchCheckpoint::decode(&text.replacen(CKPT_HEADER, header, 1))
                .expect_err("old or unknown header decoded");
            assert!(
                matches!(&err, CheckpointError::UnsupportedVersion { found } if found == header),
                "{header}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains("unsupported checkpoint version") && msg.contains(header), "{msg}");
        }
        // Truncation (drop the footer and graph tail).
        let cut = &text[..text.len() / 2];
        assert!(SearchCheckpoint::decode(cut).is_err());
        // Corrupt a counters field.
        let bad = text.replacen("counters 3", "counters x", 1);
        assert!(SearchCheckpoint::decode(&bad).is_err());
        // A schedule index out of range is caught at restore.
        let mut c = checkpoint_of(&s);
        c.best.order[0] = 9999;
        let err = SearchCheckpoint::decode(&c.encode()).unwrap().restore_state(&EvalContext::default());
        assert!(err.is_err());
        // So is a record that names a line the table does not have.
        let mut c = checkpoint_of(&s);
        c.best.eval_record[1] = c.lines.len() as u32;
        assert!(matches!(c.restore_state(&EvalContext::default()), Err(CheckpointError::Parse { .. })));
        // A duplicated schedule entry is caught at restore.
        let mut c = checkpoint_of(&s);
        c.best.order[0] = c.best.order[1];
        assert!(SearchCheckpoint::decode(&c.encode())
            .unwrap()
            .restore_state(&EvalContext::default())
            .is_err());
    }

    /// Every defect of the line table and of the index lists into it
    /// is a parse error naming the line — never a panic, and no count
    /// in the file sizes an allocation.
    #[test]
    fn decode_rejects_hostile_line_tables() {
        let s = small_state();
        let mut c = checkpoint_of(&s);
        c.frontier = vec![frontier_entry_of(&c, 1, false)];
        let text = c.encode();
        let n_lines = c.best.base_record.len();
        let last = n_lines - 1;
        assert!(text.contains(&format!("lines {n_lines}\nl magis-graph v1\nl cap ")), "{text}");
        // The one state's records are the whole table, in order.
        let section = format!("base-graph {n_lines}\ng 0-{last}\n");
        assert!(text.contains(&section));
        let parse_error = |bad: String, what: &str| match SearchCheckpoint::decode(&bad) {
            Err(CheckpointError::Parse { line, msg }) => assert!(line > 0, "{what}: {msg}"),
            other => panic!("{what}: {other:?}"),
        };
        let lines_n = format!("lines {n_lines}\n");
        for (from, to, what) in [
            // A line past the table, alone or at the end of a run; a
            // run backwards; what is no number.
            (&section, format!("base-graph {n_lines}\ng 0-{}\ng {n_lines}\n", last - 1), "index out of range"),
            (&section, format!("base-graph {n_lines}\ng 0-{n_lines}\n"), "run out of range"),
            (&section, format!("base-graph {n_lines}\ng 0-{}\n", u32::MAX), "run to u32::MAX"),
            (&section, format!("base-graph {n_lines}\ng 0-{}\n", u64::MAX), "run to u64::MAX"),
            (&section, format!("base-graph {n_lines}\ng {last}-0\n"), "run backwards"),
            (&section, format!("base-graph {n_lines}\ng 0-{} -2\n", last - 1), "negative index"),
            (&section, format!("base-graph {n_lines}\ng 0-{}-{last}\n", last - 1), "run of three"),
            // A line named twice (and so another not at all).
            (&section, format!("base-graph {n_lines}\ng 0-{} 0\n", last - 1), "line named twice"),
            (&section, format!("base-graph {n_lines}\ng 0-{} 1-{last}\n", last - 1), "runs that overlap"),
            // The declared table size against the table.
            (&lines_n, format!("lines {}\n", n_lines - 1), "count shorter than the table"),
            (&lines_n, format!("lines {}\n", n_lines + 1), "count longer than the table"),
            (&lines_n, format!("lines {}\n", usize::MAX), "count of usize::MAX"),
            (&lines_n, "lines 99999999999999999999999\n".into(), "count that is no usize"),
            // A table line that is not distinct.
            (&"\nl end\n".to_string(), "\nl magis-graph v1\n".into(), "table line twice"),
            // A table line without its prefix.
            (&"\nl cap ".to_string(), "\ncap ".into(), "table line without 'l '"),
            (&"\nl end\n".to_string(), "\nlend\n".into(), "table line with a damaged prefix"),
            // An index list against its declared length.
            (&section, format!("base-graph {last}\ng 0-{last}\n"), "list longer than declared"),
            (&section, format!("base-graph {}\ng 0-{last}\n", usize::MAX), "list shorter than declared"),
            (&section, format!("base-graph {n_lines}\nx 0-{last}\n"), "index line without 'g'"),
        ] {
            assert!(text.contains(from), "{what}: '{from}' is not in the checkpoint");
            parse_error(text.replacen(from, &to, 1), what);
        }
        // Truncation inside the table.
        let table_at = text.find("\nl cap ").unwrap();
        parse_error(text[..table_at + 4].to_string(), "cut inside a table line");
        parse_error(text[..table_at + 1].to_string(), "cut between table lines");
    }

    #[test]
    fn write_read_round_trip() {
        let s = small_state();
        let c = checkpoint_of(&s);
        let dir = std::env::temp_dir().join("magis-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ckpt");
        c.write_to(&path).unwrap();
        let r = SearchCheckpoint::read_from(&path).unwrap();
        assert_eq!(r.encode(), c.encode());
        std::fs::remove_file(&path).ok();
    }
}
