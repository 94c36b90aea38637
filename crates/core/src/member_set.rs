//! The member set: the per-member state the program-counter VM
//! "explicitly tracks" (paper §3) — a pc stack, the data stacks with
//! their cached tops, the registers — and the only code that changes
//! who is in it.
//!
//! [`State`] holds every per-lane structure of a batch of `Z` members,
//! and four invariants hold between any two supersteps:
//!
//! 1. **One length.** Every per-lane structure has length `Z`: the pc
//!    tops and pc stacks, the RNG keys, tickets, spend and peak-byte
//!    counters, each stacked variable's stack pointers, and axis 0 of
//!    every lane buffer — each `[Z, elem..]` top and register and each
//!    `[Z, D, elem..]` store. Lane `b` is row `b` of every buffer.
//! 2. **Ticket order.** Lanes are in ascending ticket order: new lanes
//!    are appended with fresh tickets, and removing lanes keeps the
//!    survivors' order.
//! 3. **Edits at a superstep edge only.** Inside a superstep, fused
//!    regions hold intermediate values in registers that exist in none
//!    of these buffers, and gather indices name lanes by position. At
//!    the edge every live value is materialized per lane, so adding or
//!    removing lanes is pure row padding and row selection, which the
//!    other lanes cannot observe.
//! 4. **Validation before mutation.** Whatever can be refused is
//!    refused by a `&self` check first; an edit that returns an error
//!    has not touched the state.
//!
//! `Z` changes in exactly two functions: [`State::grow`] appends lanes
//! and [`State::compact`] keeps a subset. Beside them
//! [`State::snapshot`] and [`State::restore`] read and write one lane's
//! rows as a portable [`LaneState`], which [`State::accepts`] checks
//! first. Each of the five is one loop over one list of lane buffers,
//! `State::buffers` — each stacked variable's top and store, then the
//! registers — with one row kernel: `pad_rows`, `gather_rows`,
//! `gather_rows` of one lane, a shape check and `scatter_rows`.
//! Admission, retirement, extraction and injection
//! ([`PcMachine`](crate::PcMachine)) are validation plus these.
//!
//! What a superstep needs beyond its members — the `Scratch` arena of
//! masks, index lists and per-block memos in `pc_vm` — is not member
//! state and is not kept here: it belongs to whoever drives the loop (a
//! `PcMachine`, or one `PcVm::run`), which lends it to each superstep
//! beside the [`State`]. Nothing in it names a lane across a superstep
//! edge, so the edits above never have to touch it.

use autobatch_ir::pcab::Program;
use autobatch_tensor::Tensor;

use crate::batch::store_rows;
use crate::error::{Result, VmError};

/// Storage for one stacked variable: frames below the cached top.
#[derive(Debug, Clone, Default)]
pub(crate) struct StackVar {
    /// `[Z, D, elem..]` frames beneath the top (lazily allocated).
    pub(crate) store: Option<Tensor>,
    /// Per-member count of frames in `store`.
    pub(crate) sp: Vec<usize>,
    /// `[Z, elem..]` cached top value (lazily allocated).
    pub(crate) top: Option<Tensor>,
}

/// Every per-lane structure of a batch (see the module docs for what
/// holds between them).
#[derive(Debug)]
pub(crate) struct State {
    z: usize,
    /// Block a fresh lane starts at.
    entry: usize,
    /// The block count: a pc top here means the lane has finished, and
    /// it is the sentinel at the bottom of every pc stack.
    exit: usize,
    pub(crate) pc_top: Vec<usize>,
    /// Per-member pc frames beneath the top.
    pub(crate) pc_stack: Vec<Vec<usize>>,
    /// Stacked-variable storage, in the program's slot order.
    pub(crate) stacked: Vec<StackVar>,
    /// Register storage, in the program's slot order.
    pub(crate) registers: Vec<Option<Tensor>>,
    /// Per-member RNG key: the `member` argument handed to the
    /// counter-based RNG. A one-shot run uses the lane index; a machine
    /// gives each admitted request its own key so a member's draws are
    /// identical whether it runs alone or joins a batch mid-flight, in
    /// any admission order.
    pub(crate) member_keys: Vec<u64>,
    /// Lane → ticket, ascending.
    pub(crate) tickets: Vec<u64>,
    next_ticket: u64,
    /// Lane → supersteps charged to the lane.
    pub(crate) spent: Vec<u64>,
    /// Lane → peak resident bytes attributed to the lane so far.
    pub(crate) peak_bytes: Vec<u64>,
}

/// The complete portable state of one **running** lane, extracted by
/// [`PcMachine::extract_lanes`](crate::PcMachine::extract_lanes) and
/// re-admitted elsewhere by
/// [`PcMachine::inject_lane`](crate::PcMachine::inject_lane) — the
/// mechanism behind cross-shard straggler migration.
///
/// Moving a lane between machines cannot perturb its results: every
/// random draw is keyed by `(seed, member_key, counter)` where the
/// counter is threaded through the program's own data, so the draw
/// stream is independent of placement, batch composition, and timing.
/// The only compatibility requirement is that source and destination
/// execute the same lowered program under the same
/// [`ExecOptions::stack_depth`](crate::ExecOptions::stack_depth)
/// (checked at injection: a store row is `stack_depth` frames deep).
#[derive(Debug, Clone)]
pub struct LaneState {
    /// The RNG member key the lane draws under.
    key: u64,
    /// The lane's current pc top (block index).
    pc_top: usize,
    /// pc frames beneath the top (exit sentinel at the bottom).
    pc_stack: Vec<usize>,
    /// Per stacked variable, in the program's slot order: the lane's
    /// stack pointer.
    sp: Vec<usize>,
    /// Per lane buffer, in `State::buffers` order: the lane's `[1, ..]`
    /// row, if the buffer was ever materialized.
    rows: Vec<Option<Tensor>>,
    /// Supersteps the lane has been charged for so far; migrates with
    /// the lane so a budget cannot be reset by moving shards.
    spent: u64,
    /// Peak per-lane resident bytes observed so far; migrates with the
    /// lane for the same reason.
    peak_bytes: u64,
}

impl LaneState {
    /// Supersteps charged to the lane so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Peak per-lane resident bytes observed so far.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

/// Refuse `row` (a lane's `[1, ..]` row of some buffer) unless its row
/// shape and dtype are those of the live buffer `live`.
fn check_row(row: &Tensor, live: &Tensor) -> Result<()> {
    if live.shape()[1..] != row.shape()[1..] || live.dtype() != row.dtype() {
        return Err(VmError::BadInputs {
            what: format!(
                "inject_lane: lane row is {:?} {:?}, but the live batch holds {:?} {:?}",
                &row.shape()[1..],
                row.dtype(),
                &live.shape()[1..],
                live.dtype()
            ),
        });
    }
    Ok(())
}

impl State {
    /// The member set of `p` with nobody in it yet.
    pub(crate) fn new(p: &Program) -> State {
        State {
            z: 0,
            entry: p.entry.0,
            exit: p.blocks.len(),
            pc_top: Vec::new(),
            pc_stack: Vec::new(),
            stacked: vec![StackVar::default(); p.stacked_vars().len()],
            registers: vec![None; p.register_vars().len()],
            member_keys: Vec::new(),
            tickets: Vec::new(),
            next_ticket: 0,
            spent: Vec::new(),
            peak_bytes: Vec::new(),
        }
    }

    /// The batch width `Z`: live lanes, running or finished.
    pub(crate) fn z(&self) -> usize {
        self.z
    }

    /// Whether lane `b` has yet to reach the exit.
    pub(crate) fn is_running(&self, b: usize) -> bool {
        self.pc_top[b] < self.exit
    }

    /// Append `k` zeroed lanes — exactly the state a fresh batch starts
    /// from: parked at the entry block over the exit sentinel, empty
    /// data stacks, zero rows, key 0, nothing spent — under the next
    /// `k` tickets. Every live buffer is padded once, however many
    /// lanes join.
    pub(crate) fn grow(&mut self, k: usize) -> Result<()> {
        self.pc_top.extend(std::iter::repeat_n(self.entry, k));
        self.pc_stack
            .extend(std::iter::repeat_n(vec![self.exit], k));
        self.member_keys.extend(std::iter::repeat_n(0, k));
        self.tickets
            .extend(self.next_ticket..self.next_ticket + k as u64);
        self.next_ticket += k as u64;
        self.spent.extend(std::iter::repeat_n(0, k));
        self.peak_bytes.extend(std::iter::repeat_n(0, k));
        for s in self.stacked.iter_mut() {
            s.sp.extend(std::iter::repeat_n(0, k));
        }
        for buf in self.buffers_mut().flatten() {
            *buf = buf.pad_rows(k)?;
        }
        self.z += k;
        Ok(())
    }

    /// Keep the lanes listed in `keep` (ascending), in that order, and
    /// drop the rest. Buffers keep their element shapes even at zero
    /// lanes. With nothing to drop, no buffer is touched.
    pub(crate) fn compact(&mut self, keep: &[usize]) -> Result<()> {
        if keep.len() == self.z {
            return Ok(());
        }
        self.pc_top = keep.iter().map(|&b| self.pc_top[b]).collect();
        self.pc_stack = keep
            .iter()
            .map(|&b| std::mem::take(&mut self.pc_stack[b]))
            .collect();
        self.member_keys = keep.iter().map(|&b| self.member_keys[b]).collect();
        self.tickets = keep.iter().map(|&b| self.tickets[b]).collect();
        self.spent = keep.iter().map(|&b| self.spent[b]).collect();
        self.peak_bytes = keep.iter().map(|&b| self.peak_bytes[b]).collect();
        for s in self.stacked.iter_mut() {
            s.sp = keep.iter().map(|&b| s.sp[b]).collect();
        }
        for buf in self.buffers_mut().flatten() {
            *buf = buf.gather_rows(keep)?;
        }
        self.z = keep.len();
        Ok(())
    }

    /// Every lane buffer, in one fixed order: each stacked variable's top
    /// and store, in the program's slot order, then the registers.
    fn buffers(&self) -> impl Iterator<Item = &Option<Tensor>> {
        let stacks = self.stacked.iter().flat_map(|s| [&s.top, &s.store]);
        stacks.chain(&self.registers)
    }

    /// [`State::buffers`], mutably.
    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut Option<Tensor>> {
        let stacks = self
            .stacked
            .iter_mut()
            .flat_map(|s| [&mut s.top, &mut s.store]);
        stacks.chain(&mut self.registers)
    }

    /// A copy of everything lane `b` holds.
    pub(crate) fn snapshot(&self, b: usize) -> Result<LaneState> {
        let rows = self
            .buffers()
            .map(|buf| buf.as_ref().map(|t| t.gather_rows(&[b])).transpose())
            .collect::<std::result::Result<_, _>>()?;
        Ok(LaneState {
            key: self.member_keys[b],
            pc_top: self.pc_top[b],
            pc_stack: self.pc_stack[b].clone(),
            sp: self.stacked.iter().map(|s| s.sp[b]).collect(),
            rows,
            spent: self.spent[b],
            peak_bytes: self.peak_bytes[b],
        })
    }

    /// Whether [`State::restore`] can write `lane` into a lane of this
    /// state: a running lane of the same program whose stores are
    /// `depth_limit` frames deep, and whose rows have the live buffers'
    /// row shapes and dtypes wherever both sides hold one.
    pub(crate) fn accepts(&self, lane: &LaneState, depth_limit: usize) -> Result<()> {
        if lane.pc_top >= self.exit {
            return Err(VmError::BadInputs {
                what: format!(
                    "inject_lane: pc top {} is out of range for {} blocks",
                    lane.pc_top, self.exit
                ),
            });
        }
        let buffers = self.buffers().count();
        if lane.sp.len() != self.stacked.len() || lane.rows.len() != buffers {
            return Err(VmError::BadInputs {
                what: format!(
                    "inject_lane: lane has {} stacked vars / {} buffers, \
                     machine has {} / {} (programs must match)",
                    lane.sp.len(),
                    lane.rows.len(),
                    self.stacked.len(),
                    buffers
                ),
            });
        }
        // The stacked variables' rows come first, as (top, store) pairs.
        let pairs = lane.rows.chunks(2).take(lane.sp.len());
        let mut stores = pairs.filter_map(|pair| pair[1].as_ref());
        if let Some(row) = stores.find(|row| row.shape()[1] != depth_limit) {
            return Err(VmError::BadInputs {
                what: format!(
                    "inject_lane: lane stack is {} frames deep, but the stack depth \
                     here is {depth_limit}",
                    row.shape()[1]
                ),
            });
        }
        for (buf, row) in self.buffers().zip(&lane.rows) {
            if let (Some(live), Some(row)) = (buf, row) {
                check_row(row, live)?;
            }
        }
        Ok(())
    }

    /// Overwrite lane `b` — a zeroed lane [`State::grow`] just appended
    /// — with `lane`, which this state [accepts](State::accepts). The
    /// lane keeps the ticket `grow` gave it. A buffer created here is
    /// zeroed around the lane's row, so it is layout-identical to one
    /// the machine grew itself.
    pub(crate) fn restore(&mut self, b: usize, lane: &LaneState) -> Result<()> {
        let z = self.z;
        self.pc_top[b] = lane.pc_top;
        self.pc_stack[b].clone_from(&lane.pc_stack);
        self.member_keys[b] = lane.key;
        self.spent[b] = lane.spent;
        self.peak_bytes[b] = lane.peak_bytes;
        for (s, &sp) in self.stacked.iter_mut().zip(&lane.sp) {
            s.sp[b] = sp;
        }
        for (buf, row) in self.buffers_mut().zip(&lane.rows) {
            if let Some(row) = row {
                store_rows(buf, z, &[b], row)?;
            }
        }
        Ok(())
    }
}
