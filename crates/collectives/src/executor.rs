//! Executing compiled instructions against a rank's bound connectors and
//! local buffers.
//!
//! The executor is deliberately split into two calls:
//!
//! * [`instr_ready`] — whether the connector conditions the instruction needs
//!   (free slot towards the send peer, available chunk from the recv peer)
//!   currently hold. This is the condition a primitive busy-waits on: DFCCL's
//!   daemon kernel polls it up to a spin threshold and preempts the
//!   collective when the bound is exceeded.
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
//! pairwise programs. The plan-IR interpreter with the same semantics lives
//! in [`crate::reference`]: it is the oracle the compiled path is tested
//! against and the strict-order loop of the NCCL-like baseline, and shares
//! the types below.
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

use crate::buffer::DeviceBuffer;
use crate::collective::CollectiveDescriptor;
use crate::primitive::{PrimitiveKind, SrcBuf};
use crate::program::CompiledProgram;
use crate::redop::{reduce_into, ReduceOp};
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
    /// The step's kind requires a peer but the plan named none.
    MalformedStep(&'static str),
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
            ExecError::MalformedStep(what) => write!(f, "malformed step: {what}"),
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

    /// Remove and return the chunk staged on `channel`, if any.
    pub fn take(&mut self, channel: ChannelId) -> Option<PendingSend> {
        let idx = self.slots.iter().position(|p| p.channel == channel)?;
        Some(self.slots.remove(idx))
    }

    /// The channels that currently hold a staged chunk.
    pub fn channels(&self) -> Vec<ChannelId> {
        self.slots.iter().map(|p| p.channel).collect()
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
    let mut all_clear = true;
    for channel in pending.channels() {
        let Some(p) = pending.take(channel) else {
            continue;
        };
        let ci = program
            .send_conn_for(p.peer, p.channel)
            .ok_or(ExecError::MissingPeerConnector { peer: p.peer })?;
        match table.send(ci).try_send(p.msg) {
            Ok(()) => {}
            Err(SendError::Full(msg)) | Err(SendError::Faulted(msg)) => {
                pending.stage(PendingSend {
                    peer: p.peer,
                    channel: p.channel,
                    msg,
                });
                all_clear = false;
            }
        }
    }
    Ok(all_clear)
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
            let mut local = local_buf.read_range(src.off, src.len);
            let data = incoming.expect("receiving instruction consumed a chunk");
            if data.len() != local.len() {
                return Err(ExecError::PayloadSizeMismatch {
                    expected: local.len(),
                    actual: data.len(),
                });
            }
            let op = op.ok_or(ExecError::MissingReduceOp)?;
            reduce_into(&mut local, &data, program.dtype(), op);
            local
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

/// Run a compiled program to completion lane-wise by busy-waiting: every
/// pass polls each lane's head instruction and executes the ready ones, so a
/// stalled channel never blocks another lane's progress. The execution
/// harness of the compiled-vs-reference bit-exactness tests. `should_abort`
/// is polled while waiting; returns `Ok(false)` if aborted.
pub fn run_program_blocking(
    coll_id: u64,
    program: &CompiledProgram,
    table: &ConnectorTable,
    op: Option<ReduceOp>,
    send_buf: &DeviceBuffer,
    recv_buf: &DeviceBuffer,
    should_abort: &dyn Fn() -> bool,
) -> Result<bool, ExecError> {
    let mut cursors = vec![0u32; program.lane_count()];
    let mut pending = PendingSends::default();
    loop {
        if should_abort() {
            return Ok(false);
        }
        let mut progressed = false;
        let mut remaining = false;
        for (li, lane) in program.lanes().iter().enumerate() {
            let cur = cursors[li] as usize;
            if cur >= lane.len() {
                continue;
            }
            remaining = true;
            let idx = lane.instr_ids()[cur];
            if !program.instr_eligible(idx, &cursors) || !instr_ready(program, idx, table, &pending)
            {
                continue;
            }
            match execute_ready_instr(
                coll_id,
                program,
                idx,
                table,
                op,
                send_buf,
                recv_buf,
                &mut pending,
            )? {
                StepOutcome::Completed => {
                    cursors[li] += 1;
                    progressed = true;
                }
                StepOutcome::NotReady => {}
            }
        }
        if !remaining {
            // The last instructions may have staged output chunks; the
            // program is only complete once every channel's chunk is on the
            // wire.
            if flush_pending_compiled(program, table, &mut pending)? {
                return Ok(true);
            }
        }
        if !progressed {
            // Busy-wait, but let other ranks' threads run: on machines with
            // fewer cores than ranks a pure spin starves the very peer that
            // would make an instruction ready.
            std::thread::yield_now();
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
    use super::*;
    use crate::datatype::DataType;
    use gpu_sim::GpuId;

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
