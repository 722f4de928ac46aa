//! Lumpability analysis: formula-adaptive, certificate-backed state-space
//! reduction (`R` codes).
//!
//! For a model `M` and a CSRL formula `Φ`, this module computes the
//! coarsest partition of the state space this analysis can *prove* to
//! preserve the semantics of `Φ` — an ordinary (strong) lumping quotient —
//! and packages the proof as a [`LumpingCertificate`] that an independent
//! `O(m)` verifier re-checks before any engine is allowed to trust it.
//!
//! # Formula-adaptive observation
//!
//! What must be preserved depends on what `Φ` can observe
//! ([`Observation::of`]):
//!
//! * a pure boolean formula over atomic propositions observes only the
//!   labeling — the initial partition groups states by their *relevant*
//!   propositions (those occurring in `Φ`) and no further refinement is
//!   needed;
//! * an `S`/`P` operator observes the transition law — blocks are refined
//!   until all members agree, bit-for-bit, on their aggregate rate into
//!   every other block;
//! * a nontrivial accumulated-reward bound `J` additionally observes the
//!   reward structure — members must agree on the state-reward rate and on
//!   the impulse earned towards every other block (and intra-block
//!   impulses must be zero, since a jump inside a block is invisible in
//!   the quotient but would still accumulate reward).
//!
//! # Exactness
//!
//! All comparisons are **bitwise** on the `f64` representation
//! ([`f64::to_bits`]), and aggregate rates are summed in the row order of
//! the sparse matrix, exactly as [`mrmc_mrm::transform::quotient`] and the
//! certificate verifier sum them. The quotient therefore reproduces the
//! full model's arithmetic *exactly* — no new rounding is introduced, so
//! checking the quotient and lifting the result is bit-reproducible.
//!
//! # Diagnostics
//!
//! The [`pass`] (registered by `mrmc lint --lumping`, *not* part of the
//! default set) reports:
//!
//! * `R001` (error) — a certificate failed re-verification (a bug trap:
//!   analysis and verifier disagree);
//! * `R101` (note) — the model is lumpable for this formula, with the
//!   original and reduced state counts;
//! * `R102` (note) — no nontrivial quotient exists for this formula;
//! * `R103` (note) — state rewards block further lumping, with an example
//!   pair of states separated only by their reward rates;
//! * `R104` (note) — impulse rewards block further lumping, with an
//!   example pair.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use mrmc_csrl::{PathFormula, StateFormula};
use mrmc_mrm::transform::{quotient, quotient_ctmc};
use mrmc_mrm::{Mrm, Partition};

use crate::{Diagnostic, LintContext, Pass, Report, Scope, Severity};

/// Which aspects of a model a formula can observe — and a lumping must
/// therefore preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The formula contains an `S` or `P` operator, so the transition law
    /// (and hence aggregate inter-block rates) is observable.
    pub rates: bool,
    /// Some path operator carries a nontrivial accumulated-reward bound
    /// `J ≠ [0, ∞)`, so state and impulse rewards are observable.
    pub rewards: bool,
}

impl Observation {
    /// What `formula` observes, by structural walk.
    pub fn of(formula: &StateFormula) -> Self {
        let mut obs = Observation {
            rates: false,
            rewards: false,
        };
        walk_state(formula, &mut obs);
        obs
    }
}

fn walk_state(f: &StateFormula, obs: &mut Observation) {
    match f {
        StateFormula::True | StateFormula::False | StateFormula::Ap(_) => {}
        StateFormula::Not(g) => walk_state(g, obs),
        StateFormula::Or(a, b) | StateFormula::And(a, b) | StateFormula::Implies(a, b) => {
            walk_state(a, obs);
            walk_state(b, obs);
        }
        StateFormula::Steady { inner, .. } => {
            obs.rates = true;
            walk_state(inner, obs);
        }
        StateFormula::Prob { path, .. } => {
            obs.rates = true;
            walk_path(path, obs);
        }
    }
}

fn walk_path(p: &PathFormula, obs: &mut Observation) {
    match p {
        PathFormula::Next { reward, inner, .. } => {
            if !reward.is_trivial() {
                obs.rewards = true;
            }
            walk_state(inner, obs);
        }
        PathFormula::Until {
            reward, lhs, rhs, ..
        } => {
            if !reward.is_trivial() {
                obs.rewards = true;
            }
            walk_state(lhs, obs);
            walk_state(rhs, obs);
        }
    }
}

/// The result of [`analyze`]: the proven partition, its certificate (when
/// it actually reduces the model), and attribution for what blocked
/// further lumping.
#[derive(Debug, Clone)]
pub struct LumpingAnalysis {
    /// What the formula observes.
    pub observation: Observation,
    /// The atomic propositions occurring in the formula, sorted.
    pub relevant_aps: Vec<String>,
    /// The coarsest partition the analysis proved safe.
    pub partition: Partition,
    /// The checkable certificate; `None` when the partition is the
    /// identity (nothing to reduce, nothing to certify).
    pub certificate: Option<LumpingCertificate>,
    /// An example pair of states kept apart *only* by their state-reward
    /// rates (0-indexed), when reward observation split a rate-lumpable
    /// pair.
    pub reward_blocked: Option<(usize, usize)>,
    /// An example pair of states kept apart *only* by impulse rewards
    /// (0-indexed).
    pub impulse_blocked: Option<(usize, usize)>,
}

/// Compute the coarsest provable `Φ`-preserving lumping of `mrm`.
///
/// The algorithm is partition refinement: start from the coarsest
/// partition compatible with the formula's atomic propositions, then split
/// blocks whose members disagree on their signature — the bitwise
/// aggregate rate into every other block and, when rewards are observed,
/// the set of impulse values earned towards every other block. Refinement
/// runs in generations that re-split only the blocks a previous split can
/// have destabilized. When rewards are observed it is staged: rates first,
/// then the state-reward split, then impulses; the stage boundaries are the
/// partitions the `R103`/`R104` attribution compares. At the impulse
/// fixpoint, impulse-uniformity violations (a state earning two different
/// impulses towards one block, or a nonzero impulse inside a block) split
/// the *receiving* block and refinement continues; every such split
/// strictly increases the block count, so the loop terminates.
pub fn analyze(mrm: &Mrm, formula: &StateFormula) -> LumpingAnalysis {
    let observation = Observation::of(formula);
    let mut relevant_aps: Vec<String> = formula
        .propositions()
        .into_iter()
        .map(str::to_owned)
        .collect();
    relevant_aps.sort_unstable();
    relevant_aps.dedup();

    let Refinement {
        partition,
        reward_blocked,
        impulse_blocked,
    } = refine(mrm, &relevant_aps, observation);

    let certificate = if partition.is_identity() {
        None
    } else {
        build_certificate(mrm, &partition, observation, relevant_aps.clone())
    };

    LumpingAnalysis {
        observation,
        relevant_aps,
        partition,
        certificate,
        reward_blocked,
        impulse_blocked,
    }
}

/// The outcome of [`refine`]: the final partition plus the attribution
/// pairs of [`LumpingAnalysis`].
struct Refinement {
    partition: Partition,
    reward_blocked: Option<(usize, usize)>,
    impulse_blocked: Option<(usize, usize)>,
}

/// The coarsest partition matching `observation`, with `R103`/`R104`
/// attribution taken from the stage boundaries of the same run.
fn refine(mrm: &Mrm, relevant_aps: &[String], observation: Observation) -> Refinement {
    let n = mrm.num_states();
    let mut keys: HashMap<Vec<bool>, usize> = HashMap::new();
    let initial: Vec<usize> = (0..n)
        .map(|s| {
            let aps: Vec<bool> = relevant_aps
                .iter()
                .map(|ap| mrm.labeling().has(s, ap))
                .collect();
            let next = keys.len();
            *keys.entry(aps).or_insert(next)
        })
        .collect();
    if !observation.rates {
        return Refinement {
            partition: Partition::from_assignment(&initial),
            reward_blocked: None,
            impulse_blocked: None,
        };
    }

    let graph = EdgeIndex::new(mrm, observation.rewards);
    let mut refiner = Refiner::new(&graph, &initial);
    refiner.stabilize(false);
    let (mut reward_blocked, mut impulse_blocked) = (None, None);
    if observation.rewards {
        let by_rates = refiner.block_of.clone();
        refiner.split_every_block(|s| mrm.state_reward(s).to_bits());
        refiner.stabilize(false);
        let by_state_rewards = refiner.block_of.clone();
        refiner.mark_all_full();
        refiner.stabilize(true);
        refiner.enforce_impulse_uniformity();
        reward_blocked = first_split_pair(&by_rates, &by_state_rewards);
        impulse_blocked = first_split_pair(&by_state_rewards, &refiner.block_of);
    }
    mrmc_obs::record(|| mrmc_obs::Event::LumpingRefinement {
        rounds: refiner.rounds,
        states: n as u64,
        blocks: refiner.num_blocks() as u64,
    });
    Refinement {
        partition: Partition::from_assignment(&refiner.block_of),
        reward_blocked,
        impulse_blocked,
    }
}

/// The transition structure refinement reads, flattened once per analysis:
/// out-edges in CSR row order (target, rate, impulse bits) and the
/// predecessor lists of every state.
struct EdgeIndex {
    /// Out-edges of state `s` are `start[s]..start[s + 1]`.
    start: Vec<usize>,
    target: Vec<usize>,
    rate: Vec<f64>,
    /// `ι(s, t).to_bits()` per edge; empty when rewards are not observed.
    impulse: Vec<u64>,
    /// Predecessors of state `t` are `pred[pred_start[t]..pred_start[t + 1]]`.
    pred_start: Vec<usize>,
    pred: Vec<usize>,
}

impl EdgeIndex {
    fn new(mrm: &Mrm, with_impulses: bool) -> Self {
        let n = mrm.num_states();
        let rates = mrm.ctmc().rates();
        let mut start = Vec::with_capacity(n + 1);
        let mut target = Vec::with_capacity(rates.nnz());
        let mut rate = Vec::with_capacity(rates.nnz());
        start.push(0);
        for s in 0..n {
            for (t, r) in rates.row(s) {
                target.push(t);
                rate.push(r);
            }
            start.push(target.len());
        }

        let mut impulse = Vec::new();
        if with_impulses {
            impulse = vec![0; target.len()];
            for (from, to, v) in mrm.impulse_rewards().iter() {
                // CSR rows are column-sorted; an impulse on a non-edge is
                // unobservable and stays out of the index.
                let row = start[from]..start[from + 1];
                if let Ok(i) = target[row.clone()].binary_search(&to) {
                    impulse[row.start + i] = v.to_bits();
                }
            }
        }

        let mut pred_start = vec![0; n + 1];
        for &t in &target {
            pred_start[t + 1] += 1;
        }
        for t in 0..n {
            pred_start[t + 1] += pred_start[t];
        }
        let mut fill = pred_start.clone();
        let mut pred = vec![0; target.len()];
        for s in 0..n {
            for &t in &target[start[s]..start[s + 1]] {
                pred[fill[t]] = s;
                fill[t] += 1;
            }
        }
        EdgeIndex {
            start,
            target,
            rate,
            impulse,
            pred_start,
            pred,
        }
    }

    fn edges(&self, s: usize) -> std::ops::Range<usize> {
        self.start[s]..self.start[s + 1]
    }

    fn preds(&self, t: usize) -> &[usize] {
        &self.pred[self.pred_start[t]..self.pred_start[t + 1]]
    }
}

/// Splitter-driven partition refinement over an [`EdgeIndex`].
///
/// Blocks are ranges of one permutation of the states, so moving a state
/// to another block is `O(1)`. Block ids are dense but not canonical;
/// [`Partition::from_assignment`] renumbers at the end.
///
/// When a block splits, its largest piece is the *heir*. A state whose
/// edges into the old block all land in the heir sums the same rates, in
/// the same row order, into the heir as it did into the old block, and
/// earns the same impulses there, so its signature is unchanged. Only two
/// kinds of states can change signature after a split, and only they are
/// re-signed in the next generation:
///
/// * the members of every non-heir piece, whose edges into the heir used
///   to be intra-block: the piece is marked *full*;
/// * the predecessors of the states in a non-heir piece: they are
///   *touched* and moved to the front of their block's range.
///
/// The untouched members of a block that is not full still share one
/// signature, so signing one of them stands for all.
struct Refiner<'g> {
    graph: &'g EdgeIndex,
    block_of: Vec<usize>,
    /// The states grouped by block: block `b` is `elems[first[b]..end[b]]`,
    /// with its `touched[b]` touched members at the front.
    elems: Vec<usize>,
    /// The index of each state in `elems`.
    pos: Vec<usize>,
    first: Vec<usize>,
    end: Vec<usize>,
    touched: Vec<usize>,
    is_touched: Vec<bool>,
    full: Vec<bool>,
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Generations run so far, across all stages.
    rounds: u64,
    /// Per-block rate accumulators, zero between signatures.
    sums: Vec<f64>,
    /// The blocks with a nonzero entry in `sums`.
    hit: Vec<usize>,
    /// `(target block, impulse bits)` of the state being signed.
    impulse_pairs: Vec<(usize, u64)>,
    /// Per-block (or per-state) marks for the impulse-uniformity scans:
    /// `seen[i]` is `(stamp, impulse bits)`, live only at the current stamp.
    seen: Vec<(u64, u64)>,
    stamp: u64,
}

impl<'g> Refiner<'g> {
    fn new(graph: &'g EdgeIndex, assignment: &[usize]) -> Self {
        let n = assignment.len();
        let k = assignment.iter().max().map_or(0, |&b| b + 1);
        let mut end = vec![0; k];
        for &b in assignment {
            end[b] += 1;
        }
        let mut first = vec![0; k];
        let mut offset = 0;
        for b in 0..k {
            first[b] = offset;
            offset += end[b];
            end[b] = first[b];
        }
        let mut elems = vec![0; n];
        let mut pos = vec![0; n];
        for (s, &b) in assignment.iter().enumerate() {
            elems[end[b]] = s;
            pos[s] = end[b];
            end[b] += 1;
        }
        let mut refiner = Refiner {
            graph,
            block_of: assignment.to_vec(),
            elems,
            pos,
            first,
            end,
            touched: vec![0; k],
            is_touched: vec![false; n],
            full: vec![false; k],
            dirty: Vec::new(),
            is_dirty: vec![false; k],
            rounds: 0,
            sums: vec![0.0; n],
            hit: Vec::new(),
            impulse_pairs: Vec::new(),
            seen: vec![(0, 0); n],
            stamp: 0,
        };
        refiner.mark_all_full();
        refiner
    }

    fn num_blocks(&self) -> usize {
        self.first.len()
    }

    fn size(&self, b: usize) -> usize {
        self.end[b] - self.first[b]
    }

    fn members(&self, b: usize) -> &[usize] {
        &self.elems[self.first[b]..self.end[b]]
    }

    fn mark_dirty(&mut self, b: usize) {
        if !self.is_dirty[b] {
            self.is_dirty[b] = true;
            self.dirty.push(b);
        }
    }

    fn mark_full(&mut self, b: usize) {
        if self.size(b) > 1 {
            self.full[b] = true;
            self.mark_dirty(b);
        }
    }

    fn mark_all_full(&mut self) {
        for b in 0..self.num_blocks() {
            self.mark_full(b);
        }
    }

    /// Move `s` to index `slot` of `elems`, swapping with the state there.
    fn move_to(&mut self, s: usize, slot: usize) {
        let other = self.elems[slot];
        let from = self.pos[s];
        self.elems[slot] = s;
        self.elems[from] = other;
        self.pos[s] = slot;
        self.pos[other] = from;
    }

    /// Mark `s` for re-signing. A full block re-signs every member anyway,
    /// and leaving its range alone lets callers iterate over it.
    fn touch(&mut self, s: usize) {
        let b = self.block_of[s];
        if self.is_touched[s] || self.full[b] || self.size(b) < 2 {
            return;
        }
        self.is_touched[s] = true;
        self.move_to(s, self.first[b] + self.touched[b]);
        self.touched[b] += 1;
        self.mark_dirty(b);
    }

    /// Run generations until one splits nothing.
    fn stabilize(&mut self, impulses: bool) {
        while self.generation(impulses) {}
    }

    /// One generation: split every dirty block by signature against the
    /// current assignment, then apply all splits together. Returns whether
    /// anything split. The partition after each generation equals the one
    /// a full round over every state would produce.
    fn generation(&mut self, impulses: bool) -> bool {
        self.rounds += 1;
        let mut signed: Vec<usize> = Vec::new();
        let mut keys: Vec<u64> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        let mut splits: Vec<(usize, Vec<Vec<usize>>)> = Vec::new();
        for b in std::mem::take(&mut self.dirty) {
            let lo = self.first[b];
            let touched = std::mem::replace(&mut self.touched[b], 0);
            for i in lo..lo + touched {
                self.is_touched[self.elems[i]] = false;
            }
            self.is_dirty[b] = false;
            let full = std::mem::replace(&mut self.full[b], false);
            let size = self.size(b);
            if size < 2 {
                continue;
            }
            // The first untouched member represents all untouched ones;
            // signing it first makes its group the first group.
            let represented = !full && touched < size;
            signed.clear();
            if represented {
                signed.push(self.elems[lo + touched]);
                signed.extend_from_slice(&self.elems[lo..lo + touched]);
            } else {
                signed.extend_from_slice(self.members(b));
            }
            keys.clear();
            ends.clear();
            for &s in &signed {
                self.signature(s, b, impulses, &mut keys);
                ends.push(keys.len());
            }
            if let Some(mut groups) = group_by_key(&signed, &keys, &ends) {
                // The group that stays under id `b`: the representative's,
                // which holds every unsigned member, else the largest.
                let stays = if represented { 0 } else { largest(&groups) };
                groups.swap_remove(stays);
                splits.push((b, groups));
            }
        }
        let split_any = !splits.is_empty();
        self.apply(splits);
        split_any
    }

    /// Append the signature of `s` (in block `b`) to `out`: the number of
    /// target blocks, then `(target block, aggregate rate bits)` sorted by
    /// block, then — when impulses are observed — the sorted, deduplicated
    /// `(target block, impulse bits)` pairs. Rates are summed in row order,
    /// so the sums are bit-identical to the quotient's and the verifier's.
    fn signature(&mut self, s: usize, b: usize, impulses: bool, out: &mut Vec<u64>) {
        let graph = self.graph;
        for e in graph.edges(s) {
            let c = self.block_of[graph.target[e]];
            if c == b {
                continue;
            }
            if self.sums[c] == 0.0 {
                self.hit.push(c);
            }
            self.sums[c] += graph.rate[e];
            if impulses {
                self.impulse_pairs.push((c, graph.impulse[e]));
            }
        }
        self.hit.sort_unstable();
        out.push(self.hit.len() as u64);
        for &c in &self.hit {
            out.extend([c as u64, self.sums[c].to_bits()]);
            self.sums[c] = 0.0;
        }
        self.hit.clear();
        if impulses {
            self.impulse_pairs.sort_unstable();
            self.impulse_pairs.dedup();
            for &(c, v) in &self.impulse_pairs {
                out.extend([c as u64, v]);
            }
            self.impulse_pairs.clear();
        }
    }

    /// Move each `(block, leaving groups)` entry's groups out into fresh
    /// blocks, then mark every non-heir piece full and touch the
    /// predecessors of its members.
    fn apply(&mut self, splits: Vec<(usize, Vec<Vec<usize>>)>) {
        let mut non_heirs: Vec<usize> = Vec::new();
        for (b, leaving) in splits {
            let mut pieces = vec![b];
            for group in leaving {
                let id = self.num_blocks();
                let group_end = self.end[b];
                for s in group {
                    self.end[b] -= 1;
                    self.move_to(s, self.end[b]);
                    self.block_of[s] = id;
                }
                self.first.push(self.end[b]);
                self.end.push(group_end);
                self.touched.push(0);
                self.full.push(false);
                self.is_dirty.push(false);
                pieces.push(id);
            }
            let heir = (0..pieces.len())
                .max_by_key(|&i| self.size(pieces[i]))
                .unwrap_or(0);
            pieces.swap_remove(heir);
            non_heirs.extend(pieces);
        }
        let graph = self.graph;
        for p in non_heirs {
            self.mark_full(p);
            for i in self.first[p]..self.end[p] {
                for &q in graph.preds(self.elems[i]) {
                    self.touch(q);
                }
            }
        }
    }

    /// Split every block by `key`, as one step outside any generation.
    fn split_every_block(&mut self, key: impl Fn(usize) -> u64) {
        let mut splits = Vec::new();
        for b in 0..self.num_blocks() {
            let members = self.members(b);
            let keys: Vec<u64> = members.iter().map(|&s| key(s)).collect();
            let ends: Vec<usize> = (1..=keys.len()).collect();
            if let Some(groups) = group_by_key(members, &keys, &ends) {
                splits.push((b, without_largest(groups)));
            }
        }
        self.apply(splits);
    }

    /// The block `s` violates impulse uniformity against, if any: the
    /// first edge (in row order) that carries a nonzero impulse inside
    /// `s`'s own block, or an impulse differing from an earlier one into
    /// the same target block.
    fn impulse_violation(&mut self, s: usize) -> Option<usize> {
        let graph = self.graph;
        let b = self.block_of[s];
        self.stamp += 1;
        for e in graph.edges(s) {
            let c = self.block_of[graph.target[e]];
            let v = graph.impulse[e];
            if c == b {
                if v != 0 {
                    return Some(b);
                }
            } else if self.seen[c].0 == self.stamp {
                if self.seen[c].1 != v {
                    return Some(c);
                }
            } else {
                self.seen[c] = (self.stamp, v);
            }
        }
        None
    }

    /// Enforce impulse uniformity at the impulse fixpoint.
    ///
    /// Refinement never creates a violation (a violation against a block
    /// is one against every block containing it), so one scan finds every
    /// source that will ever need a fix. Sources are then fixed in state
    /// order, refining to the fixpoint after each split, because a split
    /// can dissolve a later source's violation and splitting by both at
    /// once would separate states the sequential order keeps together.
    fn enforce_impulse_uniformity(&mut self) {
        let sources: Vec<usize> = (0..self.block_of.len())
            .filter(|&s| self.impulse_violation(s).is_some())
            .collect();
        for source in sources {
            while let Some(block) = self.impulse_violation(source) {
                self.split_by_incoming_impulse(source, block);
                self.stabilize(true);
            }
        }
    }

    /// Split `block` by the impulse its members receive from `source` (a
    /// member without a `source` transition is its own group). Any valid
    /// lumping must separate members receiving different impulses from the
    /// same state, and the split always separates the witnessing pair.
    fn split_by_incoming_impulse(&mut self, source: usize, block: usize) {
        let graph = self.graph;
        self.stamp += 1;
        for e in graph.edges(source) {
            let t = graph.target[e];
            if self.block_of[t] == block {
                self.seen[t] = (self.stamp, graph.impulse[e]);
            }
        }
        // A member without a `source` transition has the empty key.
        let mut keys: Vec<u64> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        for &t in self.members(block) {
            if self.seen[t].0 == self.stamp {
                keys.push(self.seen[t].1);
            }
            ends.push(keys.len());
        }
        if let Some(groups) = group_by_key(self.members(block), &keys, &ends) {
            self.apply(vec![(block, without_largest(groups))]);
        }
    }
}

/// The index of the first largest group.
fn largest(groups: &[Vec<usize>]) -> usize {
    (0..groups.len())
        .max_by_key(|&i| (groups[i].len(), std::cmp::Reverse(i)))
        .unwrap_or(0)
}

/// `groups` without its largest group.
fn without_largest(mut groups: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    groups.swap_remove(largest(&groups));
    groups
}

/// Group `members` by their keys, `keys[ends[i - 1]..ends[i]]` for member
/// `i`, in order of first appearance; `None` when all keys are equal.
fn group_by_key(members: &[usize], keys: &[u64], ends: &[usize]) -> Option<Vec<Vec<usize>>> {
    let key = |i: usize| &keys[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
    if (1..members.len()).all(|i| key(i) == key(0)) {
        return None;
    }
    let mut index: HashMap<&[u64], usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, &s) in members.iter().enumerate() {
        let next = groups.len();
        let g = *index.entry(key(i)).or_insert(next);
        if g == next {
            groups.push(Vec::new());
        }
        groups[g].push(s);
    }
    Some(groups)
}

/// The first (lowest-index) pair of states sharing a `coarse` block but
/// split apart in `fine`; both are per-state block assignments with ids
/// below the state count, and `fine` must refine `coarse`.
fn first_split_pair(coarse: &[usize], fine: &[usize]) -> Option<(usize, usize)> {
    let mut first_seen: Vec<Option<(usize, usize)>> = vec![None; coarse.len()];
    for (s, (&cb, &fb)) in coarse.iter().zip(fine).enumerate() {
        match first_seen[cb] {
            None => first_seen[cb] = Some((s, fb)),
            Some((s0, fb0)) => {
                if fb != fb0 {
                    return Some((s0, s));
                }
            }
        }
    }
    None
}

fn build_certificate(
    mrm: &Mrm,
    partition: &Partition,
    observation: Observation,
    relevant_aps: Vec<String>,
) -> Option<LumpingCertificate> {
    let reduced = if observation.rewards {
        quotient(mrm, partition).ok()?
    } else {
        // The formula cannot observe rewards, so the quotient is built
        // reward-free: cheaper to check, and the verifier can insist on it.
        Mrm::without_rewards(quotient_ctmc(mrm.ctmc(), partition).ok()?)
    };
    Some(LumpingCertificate {
        partition: partition.clone(),
        quotient: reduced,
        relevant_aps,
        observes_rates: observation.rates,
        observes_rewards: observation.rewards,
    })
}

/// A checkable lumping certificate: the partition, the quotient model it
/// claims to induce, and what the certified formula class observes.
///
/// The certificate is plain data. Nothing downstream trusts the analysis
/// that produced it — [`LumpingCertificate::verify`] re-validates every
/// claim against the original model in `O(m)` with bitwise comparisons,
/// and `mrmc-core` refuses to check on a quotient whose certificate does
/// not verify.
#[derive(Debug, Clone)]
pub struct LumpingCertificate {
    /// The claimed lumping.
    pub partition: Partition,
    /// The claimed quotient model (reward-free when rewards are not
    /// observed).
    pub quotient: Mrm,
    /// The atomic propositions whose per-state truth must survive the
    /// quotient, sorted.
    pub relevant_aps: Vec<String>,
    /// Whether aggregate inter-block rates are part of the claim.
    pub observes_rates: bool,
    /// Whether state and impulse rewards are part of the claim.
    pub observes_rewards: bool,
}

impl LumpingCertificate {
    /// Re-validate the certificate against `mrm`.
    ///
    /// Checks, in order: the partition covers the state space and the
    /// quotient has one state per block; every state agrees with its block
    /// on every relevant proposition; when rates are observed, every
    /// state's aggregate rate into every other block equals the quotient
    /// row **bitwise** (sums accumulated in row order, exactly as the
    /// quotient was built); when rewards are observed, every state matches
    /// its block's state-reward rate bitwise, every inter-block transition
    /// carries exactly the block-pair impulse, and intra-block impulses
    /// are zero; when rewards are *not* observed, the quotient must be
    /// reward-free.
    ///
    /// Runs in `O(n·|AP| + m)`.
    ///
    /// # Errors
    ///
    /// The first [`CertificateError`] encountered, identifying the
    /// offending state or transition.
    pub fn verify(&self, mrm: &Mrm) -> Result<(), CertificateError> {
        let n = mrm.num_states();
        if self.partition.num_states() != n {
            return Err(CertificateError::PartitionSize {
                states: n,
                partitioned: self.partition.num_states(),
            });
        }
        let k = self.partition.num_blocks();
        if self.quotient.num_states() != k {
            return Err(CertificateError::QuotientSize {
                blocks: k,
                quotient_states: self.quotient.num_states(),
            });
        }
        if !self.observes_rewards && !self.quotient.is_reward_free() {
            return Err(CertificateError::UnexpectedRewards);
        }

        for s in 0..n {
            let b = self.partition.block_of(s);
            for ap in &self.relevant_aps {
                if mrm.labeling().has(s, ap) != self.quotient.labeling().has(b, ap) {
                    return Err(CertificateError::LabelMismatch {
                        state: s,
                        ap: ap.clone(),
                    });
                }
            }
        }

        if self.observes_rates {
            let mut sums = vec![0.0_f64; k];
            let mut touched: Vec<usize> = Vec::new();
            for s in 0..n {
                let b = self.partition.block_of(s);
                for (t, r) in mrm.ctmc().rates().row(s) {
                    let c = self.partition.block_of(t);
                    if c == b {
                        continue;
                    }
                    if sums[c] == 0.0 {
                        touched.push(c);
                    }
                    sums[c] += r;
                }
                let qrates = self.quotient.ctmc().rates();
                let mut ok = qrates.row_nnz(b) == touched.len();
                for &c in &touched {
                    if qrates.get(b, c).to_bits() != sums[c].to_bits() {
                        ok = false;
                    }
                    sums[c] = 0.0;
                }
                touched.clear();
                if !ok {
                    return Err(CertificateError::RateMismatch { state: s, block: b });
                }
            }
        }

        if self.observes_rewards {
            for s in 0..n {
                let b = self.partition.block_of(s);
                if mrm.state_reward(s).to_bits() != self.quotient.state_reward(b).to_bits() {
                    return Err(CertificateError::StateRewardMismatch { state: s });
                }
                for (t, _) in mrm.ctmc().rates().row(s) {
                    let c = self.partition.block_of(t);
                    let v = mrm.impulse_reward(s, t);
                    if c == b {
                        if v != 0.0 {
                            return Err(CertificateError::IntraBlockImpulse { from: s, to: t });
                        }
                    } else if v.to_bits() != self.quotient.impulse_reward(b, c).to_bits() {
                        return Err(CertificateError::ImpulseMismatch { from: s, to: t });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a [`LumpingCertificate`] failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The partition covers a different number of states than the model.
    PartitionSize {
        /// States in the model.
        states: usize,
        /// States covered by the partition.
        partitioned: usize,
    },
    /// The quotient has a different number of states than the partition
    /// has blocks.
    QuotientSize {
        /// Blocks in the partition.
        blocks: usize,
        /// States in the claimed quotient.
        quotient_states: usize,
    },
    /// The certificate claims rewards are unobservable but the quotient
    /// carries rewards.
    UnexpectedRewards,
    /// A state disagrees with its block on a relevant proposition.
    LabelMismatch {
        /// The offending state.
        state: usize,
        /// The proposition in question.
        ap: String,
    },
    /// A state's aggregate rates into other blocks do not match the
    /// quotient row of its block bitwise.
    RateMismatch {
        /// The offending state.
        state: usize,
        /// Its block.
        block: usize,
    },
    /// A state's reward rate differs from its block's.
    StateRewardMismatch {
        /// The offending state.
        state: usize,
    },
    /// A transition's impulse differs from the block-pair impulse.
    ImpulseMismatch {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
    },
    /// A nonzero impulse inside a block.
    IntraBlockImpulse {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::PartitionSize {
                states,
                partitioned,
            } => write!(
                f,
                "partition covers {partitioned} states but the model has {states}"
            ),
            CertificateError::QuotientSize {
                blocks,
                quotient_states,
            } => write!(
                f,
                "quotient has {quotient_states} states for a {blocks}-block partition"
            ),
            CertificateError::UnexpectedRewards => {
                write!(f, "reward-blind certificate carries a rewarded quotient")
            }
            CertificateError::LabelMismatch { state, ap } => write!(
                f,
                "state {state} disagrees with its block on proposition \"{ap}\""
            ),
            CertificateError::RateMismatch { state, block } => write!(
                f,
                "aggregate rates of state {state} do not match quotient row of block {block}"
            ),
            CertificateError::StateRewardMismatch { state } => {
                write!(f, "state reward of state {state} differs from its block's")
            }
            CertificateError::ImpulseMismatch { from, to } => write!(
                f,
                "impulse on transition {from} -> {to} differs from its block pair's"
            ),
            CertificateError::IntraBlockImpulse { from, to } => write!(
                f,
                "nonzero impulse on intra-block transition {from} -> {to}"
            ),
        }
    }
}

impl Error for CertificateError {}

/// The lumpability lint pass. **Not** part of
/// [`Analyzer::default_passes`](crate::Analyzer::default_passes) — register
/// [`PASS`] explicitly (the CLI does under `mrmc lint --lumping`).
pub fn pass(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let analysis = analyze(ctx.mrm, formula);
    let n = ctx.mrm.num_states();
    let k = analysis.partition.num_blocks();
    match &analysis.certificate {
        Some(cert) => {
            if let Err(e) = cert.verify(ctx.mrm) {
                report.push(Diagnostic::new(
                    "R001",
                    Severity::Error,
                    format!("lumping certificate failed verification: {e}"),
                ));
                return;
            }
            report.push(
                Diagnostic::new(
                    "R101",
                    Severity::Note,
                    format!("model is lumpable: {n} -> {k} states for this formula"),
                )
                .with_suggestion(
                    "the checker applies this verified reduction automatically; \
                     pass --no-reduction to disable it",
                ),
            );
        }
        None => {
            report.push(Diagnostic::new(
                "R102",
                Severity::Note,
                format!(
                    "no nontrivial quotient: the coarsest provable partition for this formula \
                     keeps all {n} states"
                ),
            ));
        }
    }
    if let Some((a, b)) = analysis.reward_blocked {
        report.push(
            Diagnostic::new(
                "R103",
                Severity::Note,
                "state rewards block further lumping between otherwise-lumpable states",
            )
            .with_states(vec![a + 1, b + 1]),
        );
    }
    if let Some((a, b)) = analysis.impulse_blocked {
        report.push(
            Diagnostic::new(
                "R104",
                Severity::Note,
                "impulse rewards block further lumping between otherwise-lumpable states",
            )
            .with_states(vec![a + 1, b + 1]),
        );
    }
}

/// The pass descriptor for [`Analyzer::register`](crate::Analyzer::register).
pub const PASS: Pass = Pass {
    name: "lumpability",
    scope: Scope::Formula,
    run: pass,
};

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_models::{tmr, TmrConfig};
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    fn parse(s: &str) -> StateFormula {
        mrmc_csrl::parse(s).unwrap()
    }

    /// 0 → {1, 2} → 3 → 0 with the middle states lumpable for anything.
    fn diamond(rewards: [f64; 4], imp1: f64, imp2: f64) -> Mrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(rewards.to_vec()).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(1, 3, imp1).unwrap();
        iota.set(2, 3, imp2).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn observation_tracks_operators_and_reward_bounds() {
        assert_eq!(
            Observation::of(&parse("goal || !mid")),
            Observation {
                rates: false,
                rewards: false
            }
        );
        assert_eq!(
            Observation::of(&parse("P(>= 0.5) [TT U[0,1] goal]")),
            Observation {
                rates: true,
                rewards: false
            }
        );
        assert_eq!(
            Observation::of(&parse("P(>= 0.5) [TT U[0,1][0,2] goal]")),
            Observation {
                rates: true,
                rewards: true
            }
        );
        assert_eq!(
            Observation::of(&parse("S(< 0.1) (goal)")),
            Observation {
                rates: true,
                rewards: false
            }
        );
    }

    #[test]
    fn pure_ap_formula_lumps_by_labels_alone() {
        // TMR's rate structure does not lump, but a boolean formula cannot
        // see it: the partition is the proposition partition.
        let m = tmr(&TmrConfig::classic());
        let a = analyze(&m, &parse("Sup"));
        assert_eq!(a.partition.num_blocks(), 2);
        let cert = a.certificate.expect("reduction exists");
        assert!(cert.quotient.is_reward_free());
        cert.verify(&m).unwrap();
    }

    #[test]
    fn rate_observing_formula_refines_by_rates() {
        let m = tmr(&TmrConfig::classic());
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] failed]"));
        // The classic TMR rate structure admits no nontrivial lumping.
        assert!(a.partition.is_identity());
        assert!(a.certificate.is_none());
    }

    #[test]
    fn lumpable_rate_structure_reduces_under_probabilistic_formula() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(a.partition.num_blocks(), 3);
        let cert = a.certificate.expect("mid states merge");
        assert!(cert.quotient.is_reward_free());
        cert.verify(&m).unwrap();
    }

    #[test]
    fn reward_bound_keeps_rewards_and_still_lumps_when_uniform() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_eq!(a.partition.num_blocks(), 3);
        let cert = a.certificate.expect("mid states merge");
        assert!(!cert.quotient.is_reward_free());
        assert_eq!(cert.quotient.state_reward(cert.partition.block_of(1)), 5.0);
        cert.verify(&m).unwrap();
        assert_eq!(a.reward_blocked, None);
        assert_eq!(a.impulse_blocked, None);
    }

    #[test]
    fn state_rewards_block_lumping_with_example_pair() {
        let m = diamond([0.0, 5.0, 6.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert!(a.partition.is_identity());
        assert_eq!(a.reward_blocked, Some((1, 2)));
        assert_eq!(a.impulse_blocked, None);
        // A reward-blind formula still lumps the same model.
        let b = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(b.partition.num_blocks(), 3);
    }

    #[test]
    fn impulse_rewards_block_lumping_with_example_pair() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.7);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert!(a.partition.is_identity());
        assert_eq!(a.reward_blocked, None);
        assert_eq!(a.impulse_blocked, Some((1, 2)));
    }

    #[test]
    fn non_uniform_impulses_from_one_state_split_the_target_block() {
        // 0 reaches both mid states with different impulses: any valid
        // reward-observing lumping must keep 1 and 2 apart.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 1.0).unwrap();
        iota.set(0, 2, 2.0).unwrap();
        let m = Mrm::new(ctmc, rho, iota).unwrap();
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_ne!(a.partition.block_of(1), a.partition.block_of(2));
        if let Some(cert) = &a.certificate {
            cert.verify(&m).unwrap();
        }
    }

    #[test]
    fn intra_block_impulse_forces_a_split() {
        // 1 and 2 would merge, but 1 → 2 carries an impulse that a quotient
        // could not account for.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0).transition(1, 2, 1.0);
        b.transition(2, 3, 2.0).transition(2, 1, 1.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(1, 2, 3.0).unwrap();
        let m = Mrm::new(ctmc, rho, iota).unwrap();

        // Reward-blind: 1 and 2 lump (the impulse is invisible).
        let blind = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(blind.partition.block_of(1), blind.partition.block_of(2));
        blind.certificate.unwrap().verify(&m).unwrap();

        // Reward-observing: they must stay apart.
        let full = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_ne!(full.partition.block_of(1), full.partition.block_of(2));
        if let Some(cert) = &full.certificate {
            cert.verify(&m).unwrap();
        }
    }

    #[test]
    fn corrupted_certificates_are_rejected() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        let cert = a.certificate.unwrap();
        cert.verify(&m).unwrap();

        // Wrong partition size.
        let mut bad = cert.clone();
        bad.partition = Partition::identity(3);
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::PartitionSize { .. })
        ));

        // Quotient with tampered rates.
        let mut bad = cert.clone();
        let mut qb = CtmcBuilder::new(3);
        qb.transition(0, 1, 2.5); // was 2.0
        qb.transition(1, 2, 2.0);
        qb.transition(2, 0, 0.5);
        qb.label(1, "mid").label(2, "goal");
        bad.quotient = Mrm::new(
            qb.build().unwrap(),
            StateRewards::new(vec![0.0, 5.0, 1.0]).unwrap(),
            {
                let mut i = ImpulseRewards::new();
                i.set(1, 2, 0.5).unwrap();
                i
            },
        )
        .unwrap();
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::RateMismatch { .. })
        ));

        // Quotient with a mislabeled block.
        let mut bad = cert.clone();
        let mut qb = CtmcBuilder::new(3);
        qb.transition(0, 1, 2.0);
        qb.transition(1, 2, 2.0);
        qb.transition(2, 0, 0.5);
        qb.label(0, "goal").label(1, "mid");
        bad.quotient = Mrm::new(
            qb.build().unwrap(),
            StateRewards::new(vec![0.0, 5.0, 1.0]).unwrap(),
            {
                let mut i = ImpulseRewards::new();
                i.set(1, 2, 0.5).unwrap();
                i
            },
        )
        .unwrap();
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::LabelMismatch { .. })
        ));

        // Partition merging states with different rewards.
        let mut bad = cert;
        bad.partition = Partition::from_assignment(&[0, 0, 1, 2]);
        assert!(bad.verify(&m).is_err());
    }

    #[test]
    fn reward_blind_certificate_must_be_reward_free() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("goal"));
        let mut cert = a.certificate.unwrap();
        cert.verify(&m).unwrap();
        cert.quotient = quotient(&m, &cert.partition).unwrap();
        assert!(matches!(
            cert.verify(&m),
            Err(CertificateError::UnexpectedRewards)
        ));
    }

    #[test]
    fn pass_reports_lumpable_models_and_blockers() {
        let mut analyzer = Analyzer::empty();
        analyzer.register(PASS);

        let m = tmr(&TmrConfig::classic());
        let report = analyzer.check_formula(&m, &parse("Sup"), Default::default());
        assert_eq!(report.codes(), vec!["R101"]);
        assert!(report.render_human().contains("5 -> 2 states"));

        let report = analyzer.check_formula(
            &m,
            &parse("P(>= 0.5) [TT U[0,1] failed]"),
            Default::default(),
        );
        assert_eq!(report.codes(), vec!["R102"]);

        let blocked = diamond([0.0, 5.0, 6.0, 1.0], 0.5, 0.7);
        let report = analyzer.check_formula(
            &blocked,
            &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"),
            Default::default(),
        );
        assert_eq!(report.codes(), vec!["R102", "R103"]);
        // The example pair is reported 1-indexed.
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "R103")
            .unwrap();
        assert_eq!(d.states, vec![2, 3]);
    }

    #[test]
    fn certificate_errors_display() {
        for e in [
            CertificateError::PartitionSize {
                states: 4,
                partitioned: 3,
            },
            CertificateError::QuotientSize {
                blocks: 2,
                quotient_states: 3,
            },
            CertificateError::UnexpectedRewards,
            CertificateError::LabelMismatch {
                state: 1,
                ap: "up".into(),
            },
            CertificateError::RateMismatch { state: 1, block: 0 },
            CertificateError::StateRewardMismatch { state: 2 },
            CertificateError::ImpulseMismatch { from: 0, to: 1 },
            CertificateError::IntraBlockImpulse { from: 0, to: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
