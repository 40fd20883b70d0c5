//! Executing compiled instructions against a rank's bound connectors and
//! local buffers.
//!
//! The executor is deliberately split into two calls:
//!
//! * [`instr_ready`] — whether the connector conditions the instruction needs
//!   (free slot towards the send peer, available chunk from the recv peer)
//!   currently hold. This is the condition a primitive busy-waits on.
//! * [`execute_ready_instr`] — runs the instruction once the conditions hold.
//!   It consumes at most one chunk, produces at most one chunk, and never
//!   blocks, so a collective can be suspended before or after any primitive
//!   without losing data (the context is just the per-lane cursors and the
//!   staging slots). This holds for every algorithm family — preemption
//!   safety is a property of the primitive contract, not of the schedule.
//!
//! Connectors are resolved by plain index into the registration's
//! [`ConnectorTable`] (no map lookups) and byte ranges were pre-multiplied at
//! compile time, so the same executor drives ring, tree, hierarchical and
//! pairwise programs. [`LaneRun::pass`] drives both calls over every lane:
//! it is the only lane loop, and both stacks call it. A single-threaded
//! oracle in the integration tests' support code (`tests/common/oracle.rs`)
//! checks the executor against the plan IR.
//!
//! ## The staging slots
//!
//! A fused primitive (`RecvReduceSend` and friends) consumes a chunk *and*
//! publishes one. If its readiness required both a waiting chunk and a free
//! send slot, a ring of such primitives over 1-slot connectors would deadlock
//! immediately: every rank's fused step waits for a send slot that only its
//! successor's fused step can free. The executor therefore gates fused
//! primitives on their *recv* condition only and stages the outbound chunk in
//! a [`PendingSend`] slot when the connector is full — the moral equivalent
//! of NCCL's sender-side intermediate buffer.
//!
//! Staging (and the flow control it implements) is **per channel**
//! ([`PendingSends`] holds at most one staged chunk per [`ChannelId`]): a
//! chunk staged on channel `c` must be flushed before the next channel-`c`
//! primitive runs — which preserves FIFO order on every channel-`c` edge —
//! but it never gates a primitive riding a different channel, so one stalled
//! channel cannot head-of-line-block another. The slots are part of the
//! dynamic context, so preemption remains safe at every primitive boundary
//! and a suspended collective resumes with all of its channels' staged
//! chunks intact.

use dfccl_transport::{ChannelId, ChunkMsg, ConnectorTable, SendError};
use gpu_sim::{EdgeWait, GpuId, WaitSide};

use crate::buffer::DeviceBuffer;
use crate::collective::CollectiveDescriptor;
use crate::primitive::{PrimitiveKind, SrcBuf};
use crate::program::CompiledProgram;
use crate::redop::{reduce_from, reduce_into, ReduceOp};
use crate::CollectiveError;

/// Result of attempting one primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The primitive executed.
    Completed,
    /// The connector conditions were not met; nothing was consumed or produced.
    NotReady,
}

/// Errors raised during primitive execution. These indicate a broken plan or a
/// corrupted connector stream, not a transient condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The incoming chunk's payload size does not match the primitive's range.
    PayloadSizeMismatch { expected: usize, actual: usize },
    /// The incoming chunk belongs to a different collective.
    CollectiveMismatch { expected: u64, actual: u64 },
    /// A reducing primitive was executed without a reduce operator.
    MissingReduceOp,
    /// The step addresses a peer the rank's channels were not built for —
    /// the plan and the registered channels disagree.
    MissingPeerConnector { peer: usize },
    /// The plan or buffers were inconsistent with the descriptor.
    Collective(CollectiveError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PayloadSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "payload size mismatch: expected {expected} bytes, got {actual}"
                )
            }
            ExecError::CollectiveMismatch { expected, actual } => {
                write!(
                    f,
                    "chunk for collective {actual} arrived on connector of collective {expected}"
                )
            }
            ExecError::MissingReduceOp => write!(f, "reducing primitive without a reduce operator"),
            ExecError::MissingPeerConnector { peer } => {
                write!(
                    f,
                    "no connector to peer rank {peer} in this rank's channels"
                )
            }
            ExecError::Collective(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CollectiveError> for ExecError {
    fn from(e: CollectiveError) -> Self {
        ExecError::Collective(e)
    }
}

/// A chunk a fused primitive produced while its send connector was full,
/// staged until the connector drains. At most one exists per channel of an
/// in-flight collective invocation; it is part of the preemption context.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingSend {
    /// Destination rank.
    pub peer: usize,
    /// The channel whose connector towards `peer` was full.
    pub channel: ChannelId,
    /// The staged chunk.
    pub msg: ChunkMsg,
}

/// The per-channel staging slots of one in-flight collective invocation: at
/// most one staged chunk per channel, so a stalled channel holds back only
/// its own primitives. Part of the dynamic context saved across preemptions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PendingSends {
    slots: Vec<PendingSend>,
}

impl PendingSends {
    /// Whether no chunk is staged on any channel.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of channels with a staged chunk.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The chunk staged on `channel`, if any.
    pub fn on(&self, channel: ChannelId) -> Option<&PendingSend> {
        self.slots.iter().find(|p| p.channel == channel)
    }

    /// Stage a chunk on its channel. The executor flushes a channel's slot
    /// before running another primitive on that channel, so at most one chunk
    /// is ever staged per channel.
    pub fn stage(&mut self, pending: PendingSend) {
        debug_assert!(
            self.on(pending.channel).is_none(),
            "channel {} already has a staged chunk",
            pending.channel
        );
        self.slots.push(pending);
    }

    /// Drop every staged chunk but keep the slot storage, so a recycled
    /// dynamic context re-stages without reallocating.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Whether the conditions required to make progress on instruction `idx` of
/// `program` currently hold. A chunk staged on the instruction's channel
/// needs its connector to drain; otherwise the instruction needs its own
/// connector conditions. A fused primitive is gated on its *recv* condition
/// only — its send half can always be staged (see the module docs on the
/// staging slots). Chunks staged on *other* channels never gate this
/// instruction: flow control is per channel.
#[inline]
pub fn instr_ready(
    program: &CompiledProgram,
    idx: u32,
    table: &ConnectorTable,
    pending: &PendingSends,
) -> bool {
    let instr = program.instr(idx);
    if let Some(p) = pending.on(instr.channel) {
        // Staged chunks only ever come from instructions whose send edge is
        // in the program; a missing edge counts as "ready" so the execute
        // path surfaces the error instead of spinning forever.
        return match program.send_conn_for(p.peer, p.channel) {
            Some(ci) => table.send(ci).send_ready(),
            None => true,
        };
    }
    let recv_ok = !instr.kind.has_recv() || table.recv(instr.recv_conn).recv_ready();
    let send_ok =
        instr.kind.has_recv() || !instr.kind.has_send() || table.send(instr.send_conn).send_ready();
    send_ok && recv_ok
}

/// Try to publish every staged chunk through the compiled connector table,
/// one attempt per channel. Returns `true` when all slots are clear.
pub fn flush_pending_compiled(
    program: &CompiledProgram,
    table: &ConnectorTable,
    pending: &mut PendingSends,
) -> Result<bool, ExecError> {
    // Walk the slots by index (no staged chunk: no iteration, no allocation).
    // A rejected chunk goes back into its own position; with one slot per
    // channel, per-channel FIFO order holds either way.
    let mut i = 0;
    while i < pending.slots.len() {
        let p = pending.slots.remove(i);
        let ci = program
            .send_conn_for(p.peer, p.channel)
            .ok_or(ExecError::MissingPeerConnector { peer: p.peer })?;
        if let Err(SendError::Full(msg)) | Err(SendError::Faulted(msg)) =
            table.send(ci).try_send(p.msg)
        {
            pending.slots.insert(i, PendingSend { msg, ..p });
            i += 1;
        }
    }
    Ok(pending.slots.is_empty())
}

/// Execute instruction `idx` of `program`, assuming [`instr_ready`] was just
/// observed to be true.
///
/// A chunk staged on the instruction's own channel is flushed first; if it
/// cannot be flushed the call returns [`StepOutcome::NotReady`] (per-edge FIFO
/// order requires the staged chunk to leave before this instruction's output
/// rides the same channel). Chunks staged on other channels are flushed
/// opportunistically and never block this instruction. If the instruction's
/// own conditions no longer hold (e.g. the caller skipped the readiness
/// check), the call returns [`StepOutcome::NotReady`] without consuming
/// anything. A fused primitive whose send connector is full completes by
/// staging its output chunk in `pending`.
#[allow(clippy::too_many_arguments)]
pub fn execute_ready_instr(
    coll_id: u64,
    program: &CompiledProgram,
    idx: u32,
    table: &ConnectorTable,
    op: Option<ReduceOp>,
    send_buf: &DeviceBuffer,
    recv_buf: &DeviceBuffer,
    pending: &mut PendingSends,
) -> Result<StepOutcome, ExecError> {
    // Opportunistic: drain whatever other channels can flush right now.
    flush_pending_compiled(program, table, pending)?;
    let instr = *program.instr(idx);
    if pending.on(instr.channel).is_some() {
        return Ok(StepOutcome::NotReady);
    }

    // Re-check readiness defensively; never consume a chunk we cannot
    // process to completion.
    if !instr_ready(program, idx, table, pending) {
        return Ok(StepOutcome::NotReady);
    }

    let local_buf = match instr.src_buf {
        SrcBuf::Send => send_buf,
        SrcBuf::Recv => recv_buf,
    };

    // Gather the incoming chunk, if the primitive receives.
    let incoming: Option<Vec<u8>> = if instr.kind.has_recv() {
        match table.recv(instr.recv_conn).try_recv() {
            Some(msg) => {
                if msg.coll_id != coll_id {
                    return Err(ExecError::CollectiveMismatch {
                        expected: coll_id,
                        actual: msg.coll_id,
                    });
                }
                Some(msg.data)
            }
            // Lost a race we cannot lose in SPSC usage; treat as not ready.
            None => return Ok(StepOutcome::NotReady),
        }
    } else {
        None
    };

    // Compute the data this primitive produces (locally and/or over the wire).
    let data: Vec<u8> = match instr.kind {
        PrimitiveKind::Send | PrimitiveKind::Copy => {
            let src = instr.src.expect("Send/Copy instructions carry a src range");
            local_buf.read_range(src.off, src.len)
        }
        PrimitiveKind::Recv | PrimitiveKind::RecvCopySend => {
            let data = incoming.expect("receiving instruction consumed a chunk");
            let expected = instr
                .dst
                .expect("Recv/RecvCopySend instructions carry a dst range")
                .len;
            if data.len() != expected {
                return Err(ExecError::PayloadSizeMismatch {
                    expected,
                    actual: data.len(),
                });
            }
            data
        }
        PrimitiveKind::RecvReduceSend
        | PrimitiveKind::RecvReduceCopy
        | PrimitiveKind::RecvReduceCopySend => {
            let src = instr.src.expect("reducing instructions carry a src range");
            let mut data = incoming.expect("receiving instruction consumed a chunk");
            if data.len() != src.len {
                return Err(ExecError::PayloadSizeMismatch {
                    expected: src.len,
                    actual: data.len(),
                });
            }
            let op = op.ok_or(ExecError::MissingReduceOp)?;
            // Reduce inside the received chunk and pass that allocation on,
            // in the instruction's operand order, one piece of the local
            // range at a time: a fused node's buffers are views whose pieces
            // are its members, each element-aligned, so a piecewise reduce
            // is bit-exact. The read locks end with this statement, before
            // `write_range` below takes a write lock: send and recv may be
            // one allocation.
            local_buf.with_range(src.off, src.len, |at, local| {
                let data = &mut data[at..at + local.len()];
                if instr.incoming_first {
                    reduce_into(data, local, program.dtype(), op);
                } else {
                    reduce_from(local, data, program.dtype(), op);
                }
            });
            data
        }
    };

    // Local copy into the recv buffer.
    if instr.kind.has_copy() {
        let dst = instr.dst.expect("copying instructions carry a dst range");
        recv_buf.write_range(dst.off, &data);
    }

    // Publish over the wire, staging the chunk if the connector is full.
    if instr.kind.has_send() {
        let msg = ChunkMsg {
            coll_id,
            chunk_index: instr.chunk_index,
            step: instr.step,
            data,
        };
        if let Err(SendError::Full(msg)) | Err(SendError::Faulted(msg)) =
            table.send(instr.send_conn).try_send(msg)
        {
            pending.stage(PendingSend {
                peer: instr.send_peer as usize,
                channel: instr.channel,
                msg,
            });
        }
    }

    Ok(StepOutcome::Completed)
}

/// One run of a compiled program: a cursor per lane and the per-channel
/// staging slots. The NCCL-like baseline's kernel makes one
/// [`LaneRun::pass`] per poll, with no spin bound and no preemption; DFCCL's
/// daemon makes one per lane-pass step, adds only the spin bound and
/// preemption, and keeps the run in the dynamic context across preemptions.
#[derive(Debug, Clone, Default)]
pub struct LaneRun {
    cursors: Vec<u32>,
    pending: PendingSends,
}

/// What one [`LaneRun::pass`] achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePass {
    /// Every instruction has run and every staged chunk is on the wire.
    Done,
    /// This many instructions ran; 0 when the pass only put staged chunks on
    /// the wire.
    Moved(usize),
    /// Nothing could run and no staged chunk left.
    Stuck,
}

impl LaneRun {
    /// Drop every cursor and staged chunk but keep the storage: the next
    /// pass starts every lane at its first instruction without allocating.
    pub fn clear(&mut self) {
        self.cursors.clear();
        self.pending.clear();
    }

    /// Offer every staged chunk to its connector once, then run each lane
    /// head whose phase and connector conditions hold. A run whose cursors
    /// do not fit `program` (a fresh or cleared one) starts every lane at
    /// its first instruction. Never blocks.
    #[allow(clippy::too_many_arguments)]
    pub fn pass(
        &mut self,
        coll_id: u64,
        program: &CompiledProgram,
        table: &ConnectorTable,
        op: Option<ReduceOp>,
        send_buf: &DeviceBuffer,
        recv_buf: &DeviceBuffer,
    ) -> Result<LanePass, ExecError> {
        if self.cursors.len() != program.lane_count() {
            self.cursors.clear();
            self.cursors.resize(program.lane_count(), 0);
        }
        let staged = self.pending.len();
        flush_pending_compiled(program, table, &mut self.pending)?;
        let mut flushed = self.pending.len() < staged;
        let mut ran = 0;
        let mut remaining = false;
        for (li, lane) in program.lanes().iter().enumerate() {
            let Some(&idx) = lane.instr_ids().get(self.cursors[li] as usize) else {
                continue;
            };
            remaining = true;
            if !program.instr_eligible(idx, &self.cursors)
                || !instr_ready(program, idx, table, &self.pending)
            {
                continue;
            }
            let staged = self.pending.len();
            let outcome = execute_ready_instr(
                coll_id,
                program,
                idx,
                table,
                op,
                send_buf,
                recv_buf,
                &mut self.pending,
            )?;
            match outcome {
                StepOutcome::Completed => {
                    self.cursors[li] += 1;
                    ran += 1;
                }
                // Its opportunistic flush may still have published a chunk
                // staged on another channel.
                StepOutcome::NotReady => flushed |= self.pending.len() < staged,
            }
        }
        Ok(if !remaining && self.pending.is_empty() {
            LanePass::Done
        } else if ran > 0 || flushed {
            LanePass::Moved(ran)
        } else {
            LanePass::Stuck
        })
    }

    /// Fill `waits` with the edges the lane heads wait on after a stuck
    /// pass, naming rank `r` as `devices[r]`; the caller keeps the buffer, so
    /// a stuck pass allocates nothing. A staged chunk waits to send on its
    /// channel; a head held back by a phase barrier waits on another lane of
    /// this program and names no edge. A send into a connector that has
    /// room waits on a link that refused it, not on the peer.
    pub fn waits(
        &self,
        program: &CompiledProgram,
        table: &ConnectorTable,
        devices: &[GpuId],
        waits: &mut Vec<EdgeWait>,
    ) {
        let wait = |peer: usize, channel: ChannelId, side| EdgeWait {
            peer: devices[peer],
            channel: channel.0,
            side,
        };
        let send_side = |conn: Option<u32>| match conn.map(|c| table.send(c).is_full()) {
            Some(true) => WaitSide::Send,
            _ => WaitSide::Refused,
        };
        waits.clear();
        for (lane, &cur) in program.lanes().iter().zip(&self.cursors) {
            if let Some(p) = self.pending.on(lane.channel()) {
                let side = send_side(program.send_conn_for(p.peer, p.channel));
                waits.push(wait(p.peer, p.channel, side));
                continue;
            }
            let Some(&idx) = lane.instr_ids().get(cur as usize) else {
                continue;
            };
            let instr = program.instr(idx);
            if !program.instr_eligible(idx, &self.cursors) {
                continue;
            }
            if instr.kind.has_recv() {
                let (peer, channel) = program.recv_edges()[instr.recv_conn as usize];
                waits.push(wait(peer, channel, WaitSide::Recv));
            } else if instr.kind.has_send() {
                let side = send_side(Some(instr.send_conn));
                waits.push(wait(instr.send_peer as usize, instr.channel, side));
            }
        }
    }
}

/// Validate that user-supplied buffers match what the descriptor requires for
/// `rank`. Shared by DFCCL's API layer and the baseline executor.
pub fn validate_buffers(
    desc: &CollectiveDescriptor,
    rank: usize,
    send_buf: &DeviceBuffer,
    recv_buf: &DeviceBuffer,
) -> Result<(), CollectiveError> {
    let expected_send = desc.send_bytes(rank);
    if send_buf.len() < expected_send {
        return Err(CollectiveError::BufferSizeMismatch {
            expected: expected_send,
            actual: send_buf.len(),
        });
    }
    let expected_recv = desc.recv_bytes(rank);
    if recv_buf.len() < expected_recv {
        return Err(CollectiveError::BufferSizeMismatch {
            expected: expected_recv,
            actual: recv_buf.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use super::*;
    use crate::chunk::ElemRange;
    use crate::datatype::DataType;
    use crate::plan::{algorithm, AlgorithmKind, Plan};
    use crate::primitive::PrimitiveStep;
    use dfccl_transport::{Communicator, CommunicatorId, LinkModel, Topology};
    use gpu_sim::GpuId;

    fn zero_cost_comm(n: usize) -> Arc<Communicator> {
        Communicator::new(
            CommunicatorId(0),
            (0..n).map(GpuId).collect(),
            &Arc::new(Topology::flat(n)),
            &Arc::new(LinkModel::zero_cost()),
            4,
        )
        .unwrap()
    }

    /// Rank 1 of 3 with one channel-0 instruction of `kind` over 4 f32 at
    /// offset 0, receiving from rank 0 and/or sending to rank 2 as the kind
    /// requires, bound to `comm`'s connectors.
    fn single_instr_rank(
        comm: &Communicator,
        kind: PrimitiveKind,
        src_buf: SrcBuf,
    ) -> (CompiledProgram, ConnectorTable) {
        let range = Some(ElemRange::new(0, 4));
        let plan = Plan::new(
            AlgorithmKind::Ring,
            vec![PrimitiveStep {
                kind,
                src: range.filter(|_| kind.has_reduce() || !kind.has_recv()),
                src_buf,
                dst: range.filter(|_| kind.has_copy()),
                send_to: Some(2).filter(|_| kind.has_send()),
                recv_from: Some(0).filter(|_| kind.has_recv()),
                chunk_index: 0,
                step: 0,
                channel: ChannelId(0),
                incoming_first: false,
            }],
        );
        let program = CompiledProgram::compile(&plan, DataType::F32);
        let channels = comm
            .channels(1, plan.send_edges(), plan.recv_edges())
            .unwrap();
        let table = program.bind(&channels).unwrap();
        (program, table)
    }

    /// The single instruction "recv 4 f32 from rank 0, sum with send[0..4],
    /// send to rank 2".
    fn recv_reduce_send_rank(comm: &Communicator) -> (CompiledProgram, ConnectorTable) {
        single_instr_rank(comm, PrimitiveKind::RecvReduceSend, SrcBuf::Send)
    }

    fn chunk(data: Vec<u8>) -> ChunkMsg {
        ChunkMsg {
            coll_id: 9,
            chunk_index: 0,
            step: 0,
            data,
        }
    }

    /// Execute instruction 0 of `program` as collective 9 with `op`.
    fn execute(
        program: &CompiledProgram,
        table: &ConnectorTable,
        op: Option<ReduceOp>,
        send: &DeviceBuffer,
        recv: &DeviceBuffer,
        pending: &mut PendingSends,
    ) -> Result<StepOutcome, ExecError> {
        execute_ready_instr(9, program, 0, table, op, send, recv, pending)
    }

    #[test]
    fn a_send_into_a_full_connector_is_not_ready_and_stages_nothing() {
        let comm = zero_cost_comm(3);
        let (program, table) = single_instr_rank(&comm, PrimitiveKind::Send, SrcBuf::Send);
        let downstream = comm.connector_between(1, 2).unwrap();
        while downstream.try_send(chunk(vec![0; 16])).is_ok() {}
        let send = DeviceBuffer::from_f32(&[1.0; 4]);
        let mut pending = PendingSends::default();
        let outcome = execute(&program, &table, None, &send, &send, &mut pending).unwrap();
        assert_eq!(outcome, StepOutcome::NotReady);
        assert!(pending.is_empty(), "a not-ready send staged its chunk");
        assert_eq!(downstream.len(), downstream.capacity());
    }

    #[test]
    fn a_chunk_of_another_collective_is_an_error() {
        let comm = zero_cost_comm(3);
        let (program, table) = recv_reduce_send_rank(&comm);
        let foreign = ChunkMsg {
            coll_id: 7,
            ..chunk(vec![0; 16])
        };
        comm.connector_between(0, 1)
            .unwrap()
            .try_send(foreign)
            .unwrap();
        let buf = DeviceBuffer::zeroed(16);
        let err = execute(
            &program,
            &table,
            Some(ReduceOp::Sum),
            &buf,
            &buf,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::CollectiveMismatch {
                expected: 9,
                actual: 7
            }
        );
    }

    #[test]
    fn a_reducing_instruction_without_an_operator_is_an_error() {
        let comm = zero_cost_comm(3);
        let (program, table) = recv_reduce_send_rank(&comm);
        let upstream = comm.connector_between(0, 1).unwrap();
        upstream.try_send(chunk(vec![0; 16])).unwrap();
        let buf = DeviceBuffer::zeroed(16);
        let err = execute(
            &program,
            &table,
            None,
            &buf,
            &buf,
            &mut PendingSends::default(),
        );
        assert_eq!(err, Err(ExecError::MissingReduceOp));
    }

    #[test]
    fn src_buf_recv_reads_the_recv_buffer() {
        // The accumulation pattern tree and hierarchical schedules rely on: a
        // Send of `SrcBuf::Recv` publishes the recv buffer's bytes.
        let comm = zero_cost_comm(3);
        let (program, table) = single_instr_rank(&comm, PrimitiveKind::Send, SrcBuf::Recv);
        let send = DeviceBuffer::from_f32(&[1.0; 4]);
        let recv = DeviceBuffer::from_f32(&[42.0; 4]);
        let outcome = execute(
            &program,
            &table,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap();
        assert_eq!(outcome, StepOutcome::Completed);
        let sent = comm.connector_between(1, 2).unwrap().try_recv().unwrap();
        assert_eq!(DeviceBuffer::from_bytes(sent.data).to_f32_vec(), [42.0; 4]);
    }

    #[test]
    fn a_pass_whose_peer_never_runs_is_stuck_on_the_recv_edge() {
        // Rank 0 of a 2-rank ring all-reduce whose peer never runs: it sends
        // what it can, then every pass is stuck on the chunk from rank 1.
        let comm = zero_cost_comm(2);
        let desc = CollectiveDescriptor::all_reduce(
            4,
            DataType::F32,
            ReduceOp::Sum,
            vec![GpuId(0), GpuId(1)],
        );
        let plan = algorithm(AlgorithmKind::Ring)
            .build_plan(&desc, 0, 4, &Topology::flat(2))
            .unwrap();
        let program = CompiledProgram::compile(&plan, desc.dtype);
        let channels = comm
            .channels(0, plan.send_edges(), plan.recv_edges())
            .unwrap();
        let table = program.bind(&channels).unwrap();
        let buf = DeviceBuffer::zeroed(16);
        let mut run = LaneRun::default();
        let pass = |run: &mut LaneRun| run.pass(1, &program, &table, desc.op, &buf, &buf);
        assert_eq!(pass(&mut run), Ok(LanePass::Moved(1)));
        assert_eq!(pass(&mut run), Ok(LanePass::Stuck));
        assert_eq!(pass(&mut run), Ok(LanePass::Stuck));
        let mut waits = Vec::new();
        run.waits(&program, &table, &desc.devices, &mut waits);
        assert_eq!(
            waits,
            [EdgeWait {
                peer: GpuId(1),
                channel: 0,
                side: WaitSide::Recv,
            }]
        );
    }

    #[test]
    fn the_pass_that_flushes_the_last_staged_chunk_completes_the_run() {
        // A fused primitive into a full connector completes by staging its
        // output; the run is done in the pass that gets that chunk out.
        let comm = zero_cost_comm(3);
        let (program, table) = recv_reduce_send_rank(&comm);
        let upstream = comm.connector_between(0, 1).unwrap();
        upstream.try_send(chunk(vec![0; 16])).unwrap();
        let downstream = comm.connector_between(1, 2).unwrap();
        while downstream.try_send(chunk(vec![0; 16])).is_ok() {}
        let buf = DeviceBuffer::zeroed(16);
        let mut run = LaneRun::default();
        let pass =
            |run: &mut LaneRun| run.pass(9, &program, &table, Some(ReduceOp::Sum), &buf, &buf);
        assert_eq!(pass(&mut run), Ok(LanePass::Moved(1)));
        assert_eq!(pass(&mut run), Ok(LanePass::Stuck));
        let devices = [GpuId(0), GpuId(1), GpuId(2)];
        let mut waits = vec![EdgeWait {
            peer: GpuId(0),
            channel: 9,
            side: WaitSide::Recv,
        }];
        run.waits(&program, &table, &devices, &mut waits);
        assert_eq!(
            waits,
            [EdgeWait {
                peer: GpuId(2),
                channel: 0,
                side: WaitSide::Send,
            }],
            "the buffer is refilled, not appended to"
        );
        downstream.try_recv().unwrap();
        assert_eq!(pass(&mut run), Ok(LanePass::Done));
        // A cleared run keeps its storage for the next invocation.
        let cap = run.cursors.capacity();
        run.clear();
        assert!(run.cursors.is_empty() && run.pending.is_empty());
        assert_eq!(run.cursors.capacity(), cap);
    }

    #[test]
    fn recv_reduce_send_forwards_the_allocation_it_received() {
        let comm = zero_cost_comm(3);
        let (program, table) = recv_reduce_send_rank(&comm);
        let local = [1.0f32, 2.0, 3.0, 4.0];
        let send = DeviceBuffer::from_f32(&local);
        let recv = DeviceBuffer::zeroed(16);

        let payload = DeviceBuffer::from_f32(&[10.0, 20.0, 30.0, 40.0]).to_vec();
        let pushed = payload.as_ptr();
        let upstream = comm.connector_between(0, 1).unwrap();
        assert!(upstream.try_send(chunk(payload)).is_ok());

        let outcome = execute_ready_instr(
            9,
            &program,
            0,
            &table,
            Some(ReduceOp::Sum),
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap();
        assert_eq!(outcome, StepOutcome::Completed);

        let popped = comm
            .connector_between(1, 2)
            .unwrap()
            .try_recv()
            .expect("the reduced chunk went downstream");
        assert_eq!(
            popped.data.as_ptr(),
            pushed,
            "chunk was copied, not forwarded"
        );
        assert_eq!(
            DeviceBuffer::from_bytes(popped.data).to_f32_vec(),
            vec![11.0, 22.0, 33.0, 44.0]
        );
        assert_eq!(send.to_f32_vec(), local, "the local operand is only read");
        assert_eq!(recv.to_vec(), vec![0u8; 16]);
    }

    #[test]
    fn wrong_payload_length_is_an_error_that_touches_no_buffer() {
        let comm = zero_cost_comm(3);
        let (program, table) = recv_reduce_send_rank(&comm);
        let local = [1.0f32, 2.0, 3.0, 4.0];
        let send = DeviceBuffer::from_f32(&local);
        let recv = DeviceBuffer::zeroed(16);
        let upstream = comm.connector_between(0, 1).unwrap();
        assert!(upstream.try_send(chunk(vec![0u8; 12])).is_ok());

        let err = execute_ready_instr(
            9,
            &program,
            0,
            &table,
            Some(ReduceOp::Sum),
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::PayloadSizeMismatch {
                expected: 16,
                actual: 12
            }
        );
        assert_eq!(send.to_f32_vec(), local);
        assert_eq!(recv.to_vec(), vec![0u8; 16]);
        assert!(comm.connector_between(1, 2).unwrap().is_empty());
    }

    /// In-place all-reduce: every reducing primitive reads its local operand
    /// from, and `RecvReduceCopy` then writes into, the same allocation. A
    /// read lock still held when the write lock is taken would wedge the
    /// rank's thread, hence a thread per rank and a timeout.
    #[test]
    fn ring_all_reduce_in_place_on_one_buffer_handle_completes_bit_exact() {
        for n in 2..=4usize {
            let count = 37; // uneven slices, several 4-element chunks per slice
            let desc = CollectiveDescriptor::all_reduce(
                count,
                DataType::F32,
                ReduceOp::Sum,
                (0..n).map(GpuId).collect(),
            );
            let comm = zero_cost_comm(n);
            let topo = Topology::flat(n);
            let (tx, rx) = mpsc::channel();
            for rank in 0..n {
                let plan = algorithm(AlgorithmKind::Ring)
                    .build_plan(&desc, rank, 4, &topo)
                    .unwrap();
                let program = CompiledProgram::compile(&plan, desc.dtype);
                let channels = comm
                    .channels(rank, plan.send_edges(), plan.recv_edges())
                    .unwrap();
                let table = program.bind(&channels).unwrap();
                let input: Vec<f32> = (0..count).map(|i| (rank * count + i) as f32).collect();
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let buf = DeviceBuffer::from_f32(&input);
                    let mut run = LaneRun::default();
                    let done = loop {
                        match run.pass(5, &program, &table, desc.op, &buf, &buf) {
                            Ok(LanePass::Moved(_)) => {}
                            Ok(LanePass::Stuck) => std::thread::yield_now(),
                            other => break other,
                        }
                    };
                    tx.send((rank, done, buf.to_f32_vec())).unwrap();
                });
            }
            let expected: Vec<f32> = (0..count)
                .map(|i| (0..n).map(|r| (r * count + i) as f32).sum())
                .collect();
            for _ in 0..n {
                let (rank, done, out) = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("an aliased send/recv buffer wedged a rank");
                assert_eq!(done, Ok(LanePass::Done), "n={n} rank {rank}");
                assert_eq!(out, expected, "n={n} rank {rank}");
            }
        }
    }

    #[test]
    fn validate_buffers_checks_sizes() {
        let desc = CollectiveDescriptor::all_gather(4, DataType::F32, vec![GpuId(0), GpuId(1)]);
        let good_send = DeviceBuffer::zeroed(16);
        let good_recv = DeviceBuffer::zeroed(32);
        assert!(validate_buffers(&desc, 0, &good_send, &good_recv).is_ok());
        let small_recv = DeviceBuffer::zeroed(16);
        assert!(matches!(
            validate_buffers(&desc, 0, &good_send, &small_recv),
            Err(CollectiveError::BufferSizeMismatch { expected: 32, .. })
        ));
        let small_send = DeviceBuffer::zeroed(8);
        assert!(validate_buffers(&desc, 0, &small_send, &good_recv).is_err());
    }
}
