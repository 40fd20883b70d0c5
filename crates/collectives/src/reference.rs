//! The reference plan interpreter: executes a [`Plan`](crate::Plan)'s
//! [`PrimitiveStep`]s one by one against a rank's per-peer connector map.
//!
//! Nothing on DFCCL's runtime path calls this module — the daemon executes
//! compiled programs through [`crate::executor`]. It is kept for two jobs:
//!
//! * the **oracle** of the compiled-vs-reference bit-exactness tests: the
//!   interpreter reads the plan IR directly (peers and element ranges as the
//!   schedule generators wrote them), so a lowering bug in
//!   [`CompiledProgram`](crate::CompiledProgram) cannot hide in both;
//! * the **NCCL-like baseline's kernel loop** ([`run_plan_blocking`]): strict
//!   program order, unbounded busy-wait on every primitive — the behaviour
//!   whose deadlocks the paper prevents.
//!
//! Its readiness check and single-step execution have the same contract as
//! [`instr_ready`](crate::instr_ready) /
//! [`execute_ready_instr`](crate::execute_ready_instr) (see the executor's
//! module docs, including the per-channel staging slots they share); only
//! [`run_plan_blocking`] is exported.

use dfccl_transport::{ChannelId, ChunkMsg, Connector, RankChannels, SendError};

use crate::buffer::DeviceBuffer;
use crate::datatype::DataType;
use crate::executor::{ExecError, PendingSend, PendingSends, StepOutcome};
use crate::primitive::{PrimitiveKind, PrimitiveStep, SrcBuf};
use crate::redop::{reduce_into, ReduceOp};

/// Try to publish the chunk staged on one channel. Returns `true` when that
/// channel's slot is clear (nothing was staged, or the flush succeeded).
fn flush_pending_channel(
    channels: &RankChannels,
    pending: &mut PendingSends,
    channel: ChannelId,
) -> Result<bool, ExecError> {
    let Some(p) = pending.take(channel) else {
        return Ok(true);
    };
    let conn = channels
        .send_on(p.peer, p.channel)
        .ok_or(ExecError::MissingPeerConnector { peer: p.peer })?;
    match conn.try_send(p.msg) {
        Ok(()) => Ok(true),
        Err(SendError::Full(msg)) | Err(SendError::Faulted(msg)) => {
            // Full ring and faulted link are handled identically: the chunk
            // stays staged and is retried once the connector reports ready
            // again (a flaky link heals on its own; a dead one keeps the
            // slot occupied until the watchdog names the edge).
            pending.stage(PendingSend {
                peer: p.peer,
                channel: p.channel,
                msg,
            });
            Ok(false)
        }
    }
}

/// Try to publish every staged chunk, one attempt per channel. Returns `true`
/// when all slots are clear.
fn flush_pending(channels: &RankChannels, pending: &mut PendingSends) -> Result<bool, ExecError> {
    let mut all_clear = true;
    for channel in pending.channels() {
        all_clear &= flush_pending_channel(channels, pending, channel)?;
    }
    Ok(all_clear)
}

/// Whether the conditions required to make progress on `step` currently hold:
/// a chunk staged on the step's channel needs its connector to drain;
/// otherwise `step` needs its own connector conditions. A fused primitive is
/// gated on its *recv* condition only — its send half can always be staged
/// (see the module docs on the staging slots). Chunks staged on *other*
/// channels never gate this step: flow control is per channel.
///
/// A peer the channels were not built for counts as "ready": executing the
/// step then surfaces [`ExecError::MissingPeerConnector`] instead of spinning
/// on a condition that can never change.
fn step_ready(step: &PrimitiveStep, channels: &RankChannels, pending: &PendingSends) -> bool {
    if let Some(p) = pending.on(step.channel) {
        return channels
            .send_on(p.peer, p.channel)
            .is_none_or(|c| c.send_ready());
    }
    let recv_ok = match step.recv_from {
        None => true,
        Some(p) => channels
            .recv_on(p, step.channel)
            .is_none_or(|c| c.recv_ready()),
    };
    // A pure Send has nothing to stage behind: gate it on the free slot. A
    // fused primitive is recv-gated; its output is staged if the slot is full.
    let send_ok = step.kind.has_recv()
        || match step.send_to {
            None => true,
            Some(p) => channels
                .send_on(p, step.channel)
                .is_none_or(|c| c.send_ready()),
        };
    send_ok && recv_ok
}

fn resolve_send<'c>(
    step: &PrimitiveStep,
    channels: &'c RankChannels,
) -> Result<Option<&'c Connector>, ExecError> {
    if !step.kind.has_send() {
        return Ok(None);
    }
    let peer = step.send_to.ok_or(ExecError::MalformedStep(
        "send primitive without a send peer",
    ))?;
    channels
        .send_on(peer, step.channel)
        .map(|c| Some(c.as_ref()))
        .ok_or(ExecError::MissingPeerConnector { peer })
}

fn resolve_recv<'c>(
    step: &PrimitiveStep,
    channels: &'c RankChannels,
) -> Result<Option<&'c Connector>, ExecError> {
    if !step.kind.has_recv() {
        return Ok(None);
    }
    let peer = step.recv_from.ok_or(ExecError::MalformedStep(
        "recv primitive without a recv peer",
    ))?;
    channels
        .recv_on(peer, step.channel)
        .map(|c| Some(c.as_ref()))
        .ok_or(ExecError::MissingPeerConnector { peer })
}

/// Execute `step`, assuming [`step_ready`] was just observed to be true.
///
/// A chunk staged on the step's own channel is flushed first; if it cannot be
/// flushed the call returns [`StepOutcome::NotReady`] (per-edge FIFO order
/// requires the staged chunk to leave before this step's output rides the
/// same channel). Chunks staged on other channels are flushed
/// opportunistically and never block this step. If the step's own conditions
/// no longer hold (e.g. the caller skipped the readiness check), the call
/// returns [`StepOutcome::NotReady`] without consuming anything. A fused
/// primitive whose send connector is full completes by staging its output
/// chunk in `pending`.
#[allow(clippy::too_many_arguments)]
fn execute_ready_step(
    coll_id: u64,
    step: &PrimitiveStep,
    channels: &RankChannels,
    dtype: DataType,
    op: Option<ReduceOp>,
    send_buf: &DeviceBuffer,
    recv_buf: &DeviceBuffer,
    pending: &mut PendingSends,
) -> Result<StepOutcome, ExecError> {
    // Opportunistic: drain whatever other channels can flush right now.
    flush_pending(channels, pending)?;
    if pending.on(step.channel).is_some() {
        return Ok(StepOutcome::NotReady);
    }
    let elem = dtype.size_bytes();
    let send_conn = resolve_send(step, channels)?;
    let recv_conn = resolve_recv(step, channels)?;

    // Re-check readiness defensively; never consume a chunk we cannot process
    // to completion.
    if !step_ready(step, channels, pending) {
        return Ok(StepOutcome::NotReady);
    }

    // The local operand buffer: ring schedules read the original contribution
    // from the send buffer; tree/hierarchical schedules also read partials
    // accumulated in the recv buffer.
    let local_buf = match step.src_buf {
        SrcBuf::Send => send_buf,
        SrcBuf::Recv => recv_buf,
    };

    // Gather the incoming chunk, if the primitive receives.
    let incoming: Option<Vec<u8>> = if let Some(conn) = recv_conn {
        match conn.try_recv() {
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
    let data: Vec<u8> = match step.kind {
        PrimitiveKind::Send | PrimitiveKind::Copy => {
            let src = step.src.expect("Send/Copy primitives carry a src range");
            local_buf.read_range(src.byte_offset(elem), src.byte_len(elem))
        }
        PrimitiveKind::Recv | PrimitiveKind::RecvCopySend => {
            let data = incoming.expect("receiving primitive consumed a chunk");
            let expected = step
                .dst
                .expect("Recv/RecvCopySend primitives carry a dst range")
                .byte_len(elem);
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
            let src = step.src.expect("reducing primitives carry a src range");
            let mut local = local_buf.read_range(src.byte_offset(elem), src.byte_len(elem));
            let data = incoming.expect("receiving primitive consumed a chunk");
            if data.len() != local.len() {
                return Err(ExecError::PayloadSizeMismatch {
                    expected: local.len(),
                    actual: data.len(),
                });
            }
            let op = op.ok_or(ExecError::MissingReduceOp)?;
            reduce_into(&mut local, &data, dtype, op);
            local
        }
    };

    // Local copy into the recv buffer.
    if step.kind.has_copy() {
        let dst = step.dst.expect("copying primitives carry a dst range");
        recv_buf.write_range(dst.byte_offset(elem), &data);
    }

    // Publish over the wire, staging the chunk if the connector is full.
    if let Some(conn) = send_conn {
        let msg = ChunkMsg {
            coll_id,
            chunk_index: step.chunk_index,
            step: step.step,
            data,
        };
        if let Err(SendError::Full(msg)) | Err(SendError::Faulted(msg)) = conn.try_send(msg) {
            pending.stage(PendingSend {
                peer: step.send_to.expect("send primitive carries a peer"),
                channel: step.channel,
                msg,
            });
        }
    }

    Ok(StepOutcome::Completed)
}

/// Run an entire plan to completion by busy-waiting on every primitive, the
/// way an NCCL kernel would. `should_abort` is polled while waiting so
/// deadlocked scenarios can be torn down; returns `Ok(false)` if aborted.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_blocking(
    coll_id: u64,
    plan: &[PrimitiveStep],
    channels: &RankChannels,
    dtype: DataType,
    op: Option<ReduceOp>,
    send_buf: &DeviceBuffer,
    recv_buf: &DeviceBuffer,
    should_abort: &dyn Fn() -> bool,
) -> Result<bool, ExecError> {
    let mut pending = PendingSends::default();
    for step in plan {
        loop {
            if should_abort() {
                return Ok(false);
            }
            if step_ready(step, channels, &pending) {
                match execute_ready_step(
                    coll_id,
                    step,
                    channels,
                    dtype,
                    op,
                    send_buf,
                    recv_buf,
                    &mut pending,
                )? {
                    StepOutcome::Completed => break,
                    StepOutcome::NotReady => continue,
                }
            }
            // Busy-wait, but let other ranks' threads run: on machines with
            // fewer cores than ranks a pure spin starves the very peer that
            // would make this step ready.
            std::thread::yield_now();
        }
    }
    // The last primitives may have staged output chunks; the collective is
    // only complete once every channel's chunk is on the wire.
    while !flush_pending(channels, &mut pending)? {
        if should_abort() {
            return Ok(false);
        }
        std::thread::yield_now();
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ElemRange;
    use crate::collective::{CollectiveDescriptor, CollectiveKind};
    use crate::plan::{algorithm, AlgorithmKind};
    use crate::ring::build_plan;
    use dfccl_transport::{Communicator, CommunicatorId, LinkModel, Topology};
    use gpu_sim::GpuId;
    use std::sync::Arc;

    fn make_comm(n: usize) -> Arc<Communicator> {
        Communicator::new(
            CommunicatorId(0),
            (0..n).map(GpuId).collect(),
            &Arc::new(Topology::flat(n)),
            &Arc::new(LinkModel::zero_cost()),
            16,
        )
        .unwrap()
    }

    /// Ring channels for `rank` in a 2-ring: send to and recv from the peer.
    fn pair_channels(comm: &Arc<Communicator>, rank: usize) -> RankChannels {
        comm.rank_channels(rank).unwrap()
    }

    fn send_step() -> PrimitiveStep {
        PrimitiveStep {
            kind: PrimitiveKind::Send,
            src: Some(ElemRange::new(0, 1)),
            src_buf: SrcBuf::Send,
            dst: None,
            send_to: Some(1),
            recv_from: None,
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
        }
    }

    fn recv_step(from: usize) -> PrimitiveStep {
        PrimitiveStep {
            kind: PrimitiveKind::Recv,
            src: None,
            src_buf: SrcBuf::Send,
            dst: Some(ElemRange::new(0, 1)),
            send_to: None,
            recv_from: Some(from),
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
        }
    }

    /// Run a collective across `n` ranks with `algo`, one thread per rank,
    /// and return each rank's recv buffer as f32.
    fn run_collective_with(
        desc: &CollectiveDescriptor,
        inputs: Vec<Vec<f32>>,
        chunk: usize,
        algo: AlgorithmKind,
    ) -> Vec<Vec<f32>> {
        let n = desc.num_ranks();
        let comm = make_comm(n);
        let topo = Topology::flat(n);
        let mut joins = Vec::new();
        for (rank, input) in inputs.into_iter().enumerate() {
            let desc = desc.clone();
            let plan = algorithm(algo)
                .build_plan(&desc, rank, chunk, &topo)
                .unwrap();
            let channels = comm
                .channels(rank, plan.send_edges(), plan.recv_edges())
                .unwrap();
            joins.push(std::thread::spawn(move || {
                let send = DeviceBuffer::from_f32(&input);
                let recv = DeviceBuffer::zeroed(desc.recv_bytes(rank).max(4));
                let done = run_plan_blocking(
                    42,
                    &plan.steps,
                    &channels,
                    desc.dtype,
                    desc.op,
                    &send,
                    &recv,
                    &|| false,
                )
                .unwrap();
                assert!(done);
                recv.to_f32_vec()
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    fn run_collective(
        desc: &CollectiveDescriptor,
        inputs: Vec<Vec<f32>>,
        chunk: usize,
    ) -> Vec<Vec<f32>> {
        run_collective_with(desc, inputs, chunk, AlgorithmKind::Ring)
    }

    #[test]
    fn all_reduce_produces_the_sum_on_every_rank() {
        let n = 4;
        let count = 37; // not divisible by n, exercises uneven slices
        let desc = CollectiveDescriptor::all_reduce(
            count,
            DataType::F32,
            ReduceOp::Sum,
            (0..n).map(GpuId).collect(),
        );
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count).map(|i| (r * count + i) as f32).collect())
            .collect();
        let expected: Vec<f32> = (0..count)
            .map(|i| (0..n).map(|r| (r * count + i) as f32).sum())
            .collect();
        let outputs = run_collective(&desc, inputs, 8);
        for (rank, out) in outputs.iter().enumerate() {
            assert_eq!(out, &expected, "rank {rank}");
        }
    }

    #[test]
    fn tree_all_reduce_produces_the_sum_on_every_rank() {
        // Same workload as the ring test, scheduled over the double binary
        // tree — identical results from a different plan shape.
        for n in [2usize, 3, 5, 8] {
            let count = 37;
            let desc = CollectiveDescriptor::all_reduce(
                count,
                DataType::F32,
                ReduceOp::Sum,
                (0..n).map(GpuId).collect(),
            );
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|r| (0..count).map(|i| (r * count + i) as f32).collect())
                .collect();
            let expected: Vec<f32> = (0..count)
                .map(|i| (0..n).map(|r| (r * count + i) as f32).sum())
                .collect();
            let outputs = run_collective_with(&desc, inputs, 8, AlgorithmKind::DoubleBinaryTree);
            for (rank, out) in outputs.iter().enumerate() {
                assert_eq!(out, &expected, "n {n} rank {rank}");
            }
        }
    }

    #[test]
    fn tree_broadcast_copies_root_data_everywhere() {
        for n in [2usize, 4, 7] {
            let count = 21;
            let root = n - 1;
            let desc = CollectiveDescriptor::broadcast(
                count,
                DataType::F32,
                root,
                (0..n).map(GpuId).collect(),
            );
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|r| {
                    (0..count)
                        .map(|i| if r == root { i as f32 * 3.0 } else { -1.0 })
                        .collect()
                })
                .collect();
            let expected: Vec<f32> = (0..count).map(|i| i as f32 * 3.0).collect();
            let outputs = run_collective_with(&desc, inputs, 4, AlgorithmKind::DoubleBinaryTree);
            for (rank, out) in outputs.iter().enumerate() {
                assert_eq!(out, &expected, "n {n} rank {rank}");
            }
        }
    }

    #[test]
    fn all_reduce_max_on_two_ranks() {
        let desc = CollectiveDescriptor::all_reduce(
            5,
            DataType::F32,
            ReduceOp::Max,
            vec![GpuId(0), GpuId(1)],
        );
        let inputs = vec![
            vec![1.0, 9.0, -3.0, 4.0, 0.0],
            vec![2.0, 8.0, -1.0, 4.5, -7.0],
        ];
        let outputs = run_collective(&desc, inputs, 2);
        assert_eq!(outputs[0], vec![2.0, 9.0, -1.0, 4.5, 0.0]);
        assert_eq!(outputs[1], outputs[0]);
    }

    #[test]
    fn all_gather_concatenates_contributions() {
        let n = 3;
        let count = 4;
        let desc =
            CollectiveDescriptor::all_gather(count, DataType::F32, (0..n).map(GpuId).collect());
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count).map(|i| (100 * r + i) as f32).collect())
            .collect();
        let expected: Vec<f32> = inputs.concat();
        let outputs = run_collective(&desc, inputs, 3);
        for out in outputs {
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_slice() {
        let n = 3;
        let count = 5;
        let desc = CollectiveDescriptor::reduce_scatter(
            count,
            DataType::F32,
            ReduceOp::Sum,
            (0..n).map(GpuId).collect(),
        );
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count * n).map(|i| (r + i) as f32).collect())
            .collect();
        let outputs = run_collective(&desc, inputs, 2);
        for (rank, out) in outputs.iter().enumerate() {
            let expected: Vec<f32> = (0..count)
                .map(|i| (0..n).map(|r| (r + rank * count + i) as f32).sum::<f32>())
                .collect();
            assert_eq!(out, &expected, "rank {rank}");
        }
    }

    #[test]
    fn reduce_delivers_sum_to_the_root_only() {
        let n = 4;
        let count = 6;
        let root = 2;
        let desc = CollectiveDescriptor::reduce(
            count,
            DataType::F32,
            ReduceOp::Sum,
            root,
            (0..n).map(GpuId).collect(),
        );
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count).map(|i| ((r + 1) * (i + 1)) as f32).collect())
            .collect();
        let expected: Vec<f32> = (0..count)
            .map(|i| (0..n).map(|r| ((r + 1) * (i + 1)) as f32).sum())
            .collect();
        let outputs = run_collective(&desc, inputs, 4);
        assert_eq!(outputs[root], expected);
    }

    #[test]
    fn broadcast_copies_root_data_everywhere() {
        let n = 4;
        let count = 9;
        let root = 1;
        let desc = CollectiveDescriptor::broadcast(
            count,
            DataType::F32,
            root,
            (0..n).map(GpuId).collect(),
        );
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| {
                (0..count)
                    .map(|i| if r == root { i as f32 * 2.0 } else { -1.0 })
                    .collect()
            })
            .collect();
        let expected: Vec<f32> = (0..count).map(|i| i as f32 * 2.0).collect();
        let outputs = run_collective(&desc, inputs, 4);
        for (rank, out) in outputs.iter().enumerate() {
            assert_eq!(out, &expected, "rank {rank}");
        }
    }

    #[test]
    fn step_ready_tracks_connector_state() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let send_step = send_step();
        let recv_from_1 = recv_step(1);
        assert!(step_ready(&send_step, &ch0, &PendingSends::default()));
        assert!(!step_ready(&recv_from_1, &ch0, &PendingSends::default()));
        // Fill the send connector completely: send becomes not-ready.
        let send = DeviceBuffer::from_f32(&[1.0]);
        let recv = DeviceBuffer::zeroed(4);
        let capacity = ch0.send_to(1).unwrap().capacity();
        for _ in 0..capacity {
            execute_ready_step(
                1,
                &send_step,
                &ch0,
                DataType::F32,
                None,
                &send,
                &recv,
                &mut PendingSends::default(),
            )
            .unwrap();
        }
        assert!(!step_ready(&send_step, &ch0, &PendingSends::default()));
        // And the peer now has data to receive.
        let ch1 = pair_channels(&comm, 1);
        assert!(step_ready(&recv_step(0), &ch1, &PendingSends::default()));
    }

    #[test]
    fn execute_not_ready_consumes_nothing() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let send = DeviceBuffer::zeroed(4);
        let recv = DeviceBuffer::zeroed(4);
        let out = execute_ready_step(
            1,
            &recv_step(1),
            &ch0,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap();
        assert_eq!(out, StepOutcome::NotReady);
    }

    #[test]
    fn missing_peer_connector_is_an_error_not_a_hang() {
        let comm = make_comm(3);
        // Channels only cover peer 1, but the step addresses peer 2.
        let ch0 = comm
            .channels(0, &[(1, ChannelId(0))], &[(1, ChannelId(0))])
            .unwrap();
        let mut stray = send_step();
        stray.send_to = Some(2);
        // step_ready must not spin on a connector that can never appear.
        assert!(step_ready(&stray, &ch0, &PendingSends::default()));
        let send = DeviceBuffer::from_f32(&[1.0]);
        let recv = DeviceBuffer::zeroed(4);
        let err = execute_ready_step(
            1,
            &stray,
            &ch0,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::MissingPeerConnector { peer: 2 });
    }

    #[test]
    fn step_without_required_peer_is_malformed() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let mut bad = send_step();
        bad.send_to = None;
        let send = DeviceBuffer::from_f32(&[1.0]);
        let recv = DeviceBuffer::zeroed(4);
        let err = execute_ready_step(
            1,
            &bad,
            &ch0,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MalformedStep(_)));
    }

    #[test]
    fn src_buf_recv_reads_the_recv_buffer() {
        // A Send with SrcBuf::Recv must publish the recv buffer's bytes —
        // the accumulation pattern tree and hierarchical schedules rely on.
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let ch1 = pair_channels(&comm, 1);
        let send = DeviceBuffer::from_f32(&[1.0]);
        let recv = DeviceBuffer::from_f32(&[42.0]);
        let mut step = send_step();
        step.src_buf = SrcBuf::Recv;
        execute_ready_step(
            1,
            &step,
            &ch0,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap();
        let out = DeviceBuffer::zeroed(4);
        execute_ready_step(
            1,
            &recv_step(0),
            &ch1,
            DataType::F32,
            None,
            &DeviceBuffer::zeroed(4),
            &out,
            &mut PendingSends::default(),
        )
        .unwrap();
        assert_eq!(out.to_f32_vec(), vec![42.0]);
    }

    #[test]
    fn mismatched_collective_id_is_detected() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let ch1 = pair_channels(&comm, 1);
        // Rank 0 sends under collective id 7.
        ch0.send_to(1)
            .unwrap()
            .try_send(ChunkMsg {
                coll_id: 7,
                chunk_index: 0,
                step: 0,
                data: vec![0u8; 4],
            })
            .unwrap();
        let send = DeviceBuffer::zeroed(4);
        let recv = DeviceBuffer::zeroed(4);
        let err = execute_ready_step(
            9,
            &recv_step(0),
            &ch1,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::CollectiveMismatch {
                expected: 9,
                actual: 7
            }
        ));
    }

    #[test]
    fn payload_size_mismatch_is_detected() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let ch1 = pair_channels(&comm, 1);
        ch0.send_to(1)
            .unwrap()
            .try_send(ChunkMsg {
                coll_id: 1,
                chunk_index: 0,
                step: 0,
                data: vec![0u8; 8],
            })
            .unwrap();
        let step = recv_step(0); // expects 4 bytes
        let send = DeviceBuffer::zeroed(4);
        let recv = DeviceBuffer::zeroed(4);
        let err = execute_ready_step(
            1,
            &step,
            &ch1,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::PayloadSizeMismatch {
                expected: 4,
                actual: 8
            }
        ));
    }

    #[test]
    fn reducing_step_without_op_is_an_error() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let ch1 = pair_channels(&comm, 1);
        ch0.send_to(1)
            .unwrap()
            .try_send(ChunkMsg {
                coll_id: 1,
                chunk_index: 0,
                step: 0,
                data: vec![0u8; 4],
            })
            .unwrap();
        let step = PrimitiveStep {
            kind: PrimitiveKind::RecvReduceCopy,
            src: Some(ElemRange::new(0, 1)),
            src_buf: SrcBuf::Send,
            dst: Some(ElemRange::new(0, 1)),
            send_to: None,
            recv_from: Some(0),
            chunk_index: 0,
            step: 0,
            channel: ChannelId(0),
        };
        let send = DeviceBuffer::zeroed(4);
        let recv = DeviceBuffer::zeroed(4);
        let err = execute_ready_step(
            1,
            &step,
            &ch1,
            DataType::F32,
            None,
            &send,
            &recv,
            &mut PendingSends::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::MissingReduceOp);
    }

    #[test]
    fn abort_stops_a_blocking_run() {
        let comm = make_comm(2);
        let ch0 = pair_channels(&comm, 0);
        let desc = CollectiveDescriptor::all_reduce(
            4,
            DataType::F32,
            ReduceOp::Sum,
            vec![GpuId(0), GpuId(1)],
        );
        let plan = build_plan(&desc, 0, 4).unwrap();
        let send = DeviceBuffer::from_f32(&[1.0; 4]);
        let recv = DeviceBuffer::zeroed(16);
        // The peer never participates, so without the abort this would hang.
        let done = run_plan_blocking(
            1,
            &plan.steps,
            &ch0,
            DataType::F32,
            Some(ReduceOp::Sum),
            &send,
            &recv,
            &|| true,
        )
        .unwrap();
        assert!(!done);
    }

    #[test]
    fn collective_kinds_all_run_with_odd_chunk_sizes() {
        // Smoke test: every kind completes with a chunk size that does not
        // divide the slice size evenly. Dense-mesh kinds run their pairwise
        // schedule; everything else runs the ring.
        for kind in CollectiveKind::ALL {
            let n = 3;
            let count = 7;
            let devices: Vec<GpuId> = (0..n).map(GpuId).collect();
            let desc = match kind {
                CollectiveKind::AllReduce => {
                    CollectiveDescriptor::all_reduce(count, DataType::F32, ReduceOp::Sum, devices)
                }
                CollectiveKind::AllGather => {
                    CollectiveDescriptor::all_gather(count, DataType::F32, devices)
                }
                CollectiveKind::ReduceScatter => CollectiveDescriptor::reduce_scatter(
                    count,
                    DataType::F32,
                    ReduceOp::Sum,
                    devices,
                ),
                CollectiveKind::Reduce => {
                    CollectiveDescriptor::reduce(count, DataType::F32, ReduceOp::Sum, 0, devices)
                }
                CollectiveKind::Broadcast => {
                    CollectiveDescriptor::broadcast(count, DataType::F32, 0, devices)
                }
                CollectiveKind::AllToAll => {
                    CollectiveDescriptor::all_to_all(count, DataType::F32, devices)
                }
                CollectiveKind::SendRecv => {
                    CollectiveDescriptor::send_recv(count, DataType::F32, GpuId(0), GpuId(1))
                }
            };
            let algo = match kind {
                CollectiveKind::AllToAll | CollectiveKind::SendRecv => AlgorithmKind::Pairwise,
                _ => AlgorithmKind::Ring,
            };
            let inputs: Vec<Vec<f32>> = (0..desc.num_ranks())
                .map(|r| (0..desc.send_elems(r)).map(|i| (r + i) as f32).collect())
                .collect();
            let _ = run_collective_with(&desc, inputs, 3, algo);
        }
    }

    #[test]
    fn all_to_all_transposes_slices_across_ranks() {
        // Each rank sends slice j to rank j; rank r ends up with everyone's
        // slice r, concatenated in source order.
        let n = 4;
        let count = 5;
        let desc =
            CollectiveDescriptor::all_to_all(count, DataType::F32, (0..n).map(GpuId).collect());
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|r| (0..count * n).map(|i| (100 * r + i) as f32).collect())
            .collect();
        let outputs = run_collective_with(&desc, inputs.clone(), 2, AlgorithmKind::Pairwise);
        for (rank, out) in outputs.iter().enumerate() {
            let expected: Vec<f32> = (0..n)
                .flat_map(|src| inputs[src][rank * count..(rank + 1) * count].to_vec())
                .collect();
            assert_eq!(out, &expected, "rank {rank}");
        }
    }

    #[test]
    fn send_recv_delivers_the_payload_to_the_receiver() {
        let desc = CollectiveDescriptor::send_recv(9, DataType::F32, GpuId(0), GpuId(1));
        let inputs = vec![(0..9).map(|i| i as f32 * 1.5).collect::<Vec<f32>>(), vec![]];
        let outputs = run_collective_with(&desc, inputs.clone(), 4, AlgorithmKind::Pairwise);
        assert_eq!(outputs[1], inputs[0]);
    }
}
