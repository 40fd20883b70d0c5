//! The reference oracle: every rank's [`Plan`] executed from one thread.
//!
//! It lives in test support, out of reach of every runtime crate: DFCCL's
//! daemon and the NCCL-like baseline both execute compiled programs through
//! `dfccl_collectives::executor`. The oracle reads the plan IR directly
//! (peers and element ranges as the schedule generators wrote them), so a
//! lowering bug in `CompiledProgram` cannot hide in both.
//!
//! The model is deliberately the simplest one that can run a schedule: each
//! rank's [`PrimitiveStep`]s run in program order, every directed
//! `(src, dst, channel)` edge is an unbounded FIFO of chunk payloads (so a
//! send never waits), and the ranks are stepped round-robin, one primitive
//! per rank per round. A round in which no rank can move is a deadlock of the
//! plans themselves and is reported as an error, as is a chunk left unread
//! at the end. Reductions use [`reduce_into`] with the local operand first,
//! or the incoming chunk first where the step sets `incoming_first` — the
//! operand orders the executor's `reduce_from` and `reduce_into` reproduce.

use std::collections::{HashMap, VecDeque};

use dfccl_collectives::redop::reduce_into;
use dfccl_collectives::{CollectiveDescriptor, DeviceBuffer, Plan, PrimitiveStep, SrcBuf};
use dfccl_transport::ChannelId;

/// Chunks in flight on each directed `(src, dst, channel)` edge.
type Fifos = HashMap<(usize, usize, ChannelId), VecDeque<Vec<u8>>>;

/// Run `plans[r]` for every rank `r` of `desc` to completion over unbounded
/// FIFOs, reading `sends[r]` and writing `recvs[r]`. Returns a description
/// of the failure if a plan is malformed, a payload has the wrong length, a
/// full round moves nothing, or a chunk is never received.
pub fn run_oracle(
    desc: &CollectiveDescriptor,
    plans: &[Plan],
    sends: &[DeviceBuffer],
    recvs: &[DeviceBuffer],
) -> Result<(), String> {
    let n = plans.len();
    for (rank, plan) in plans.iter().enumerate() {
        plan.validate(rank, n).map_err(|e| e.to_string())?;
    }
    let mut fifos = Fifos::new();
    let mut cursors = vec![0usize; n];
    loop {
        let mut moved = false;
        for rank in 0..n {
            let Some(step) = plans[rank].steps.get(cursors[rank]) else {
                continue;
            };
            let incoming = match step.recv_from {
                Some(peer) => match fifos
                    .get_mut(&(peer, rank, step.channel))
                    .and_then(VecDeque::pop_front)
                {
                    Some(chunk) => Some(chunk),
                    None => continue,
                },
                None => None,
            };
            let data = execute(desc, step, incoming, &sends[rank], &recvs[rank])
                .map_err(|e| format!("rank {rank} step {}: {e}", cursors[rank]))?;
            if let Some(peer) = step.send_to {
                fifos
                    .entry((rank, peer, step.channel))
                    .or_default()
                    .push_back(data);
            }
            cursors[rank] += 1;
            moved = true;
        }
        if cursors.iter().zip(plans).all(|(&c, p)| c == p.len()) {
            return match fifos.iter().find(|(_, q)| !q.is_empty()) {
                Some((edge, q)) => Err(format!("{} chunk(s) never received on {edge:?}", q.len())),
                None => Ok(()),
            };
        }
        if !moved {
            return Err(format!("no rank can move; program positions {cursors:?}"));
        }
    }
}

/// One primitive: compute the chunk it produces from the incoming chunk and
/// the local operand, and write it to the recv buffer if the kind copies.
fn execute(
    desc: &CollectiveDescriptor,
    step: &PrimitiveStep,
    incoming: Option<Vec<u8>>,
    send: &DeviceBuffer,
    recv: &DeviceBuffer,
) -> Result<Vec<u8>, String> {
    let elem = desc.dtype.size_bytes();
    let local = step.src.map(|src| {
        let buf = match step.src_buf {
            SrcBuf::Send => send,
            SrcBuf::Recv => recv,
        };
        buf.read_range(src.byte_offset(elem), src.byte_len(elem))
    });
    let data = match incoming {
        None => local.ok_or("a non-receiving primitive without a src range")?,
        Some(chunk) if !step.kind.has_reduce() => chunk,
        Some(chunk) => {
            let mut acc = local.ok_or("a reducing primitive without a src range")?;
            if chunk.len() != acc.len() {
                return Err(format!(
                    "{} payload bytes, {} expected",
                    chunk.len(),
                    acc.len()
                ));
            }
            let op = desc
                .op
                .ok_or("a reducing primitive without a reduce operator")?;
            if step.incoming_first {
                let mut chunk = chunk;
                reduce_into(&mut chunk, &acc, desc.dtype, op);
                chunk
            } else {
                reduce_into(&mut acc, &chunk, desc.dtype, op);
                acc
            }
        }
    };
    if let Some(dst) = step.dst.filter(|_| step.kind.has_copy()) {
        if data.len() != dst.byte_len(elem) {
            return Err(format!(
                "{} bytes for a {}-byte range",
                data.len(),
                dst.byte_len(elem)
            ));
        }
        recv.write_range(dst.byte_offset(elem), &data);
    }
    Ok(data)
}
