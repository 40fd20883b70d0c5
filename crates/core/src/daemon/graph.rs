//! Graph replay inside the daemon: the captured-graph types, the admission
//! half (one graph SQE expands into its pre-resolved per-node invocations)
//! and the completion half (nodes count down against their run; the run's
//! last node publishes the graph's single CQE).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dfccl_collectives::GraphOp;
use gpu_sim::GpuId;

use super::core::DaemonCore;
use super::RegisteredCollective;
use crate::context::{DynamicContext, GraphTag};
use crate::telemetry::TelemetryEventKind;
use crate::tenant::TenantId;

/// One node of a captured graph: the (possibly fused) recorded operation and
/// its registration, resolved at capture time so replay touches neither the
/// registry lock nor the plan cache.
pub struct GraphNode {
    /// The recorded operation (buffers fixed at capture).
    pub op: GraphOp,
    /// The pre-resolved static context the daemon executes the node with.
    pub reg: Arc<RegisteredCollective>,
}

/// An immutable captured iteration graph, ready for replay. Created by
/// `RankCtx::begin_capture` / `GraphRecorder::finish`; submitted whole by
/// `RankCtx::replay` as one SQE carrying the graph id.
pub struct CapturedGraph {
    /// The replay id (`GRAPH_ID_BASE | counter`, unique per rank).
    pub graph_id: u64,
    /// The GPU whose rank context captured this graph (replay is only valid
    /// on the same rank — the nodes hold that rank's connectors).
    pub gpu: GpuId,
    /// The nodes, in recorded submission order, after the fusion pass.
    pub nodes: Vec<GraphNode>,
    /// Guards against overlapping replays of one graph: the recorded
    /// buffers, which fused nodes address in place, are fixed addresses, so
    /// a second in-flight replay would race the first. Set by `replay`,
    /// cleared by the daemon after the final node's completion.
    pub(crate) in_flight: AtomicBool,
}

impl CapturedGraph {
    /// Number of collectives one replay executes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many of the nodes are fused buckets (not how many recorded
    /// collectives they coalesce).
    pub fn fused_nodes(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, GraphOp::Fused(_)))
            .count()
    }

    /// The tenant a replay is accounted to: the first node's registering
    /// tenant (capture is rank-local, so all nodes share it in practice).
    pub fn tenant(&self) -> TenantId {
        self.nodes
            .first()
            .map_or(TenantId::DEFAULT, |n| n.reg.tenant)
    }
}

/// Countdown state of one in-flight graph replay: lives in
/// [`super::DaemonShared`] (not the core) so it survives voluntary quits and
/// restarts.
pub(super) struct GraphRun {
    graph: Arc<CapturedGraph>,
    /// Nodes not yet completed or failed. At zero the run is torn down and
    /// the graph's single CQE is published.
    remaining: usize,
}

impl DaemonCore {
    /// Expand a graph-replay SQE (admission): insert the run's countdown
    /// state and enqueue one pre-tagged invocation per node, in recorded
    /// order, on the registering tenant's lane. The nodes then flow through
    /// the ordinary slices; only their completions are routed differently
    /// (see [`DaemonCore::complete_graph_node`]).
    pub(super) fn expand_graph(&mut self, graph_id: u64, run: u64) {
        let graph = self.shared.graphs.read().get(&graph_id).cloned();
        let tenant = graph.as_ref().map_or(TenantId::DEFAULT, |g| g.tenant());
        self.shared
            .telemetry
            .record(graph_id, tenant, TelemetryEventKind::Fetch);
        let Some(graph) = graph else {
            // Replay of a graph this rank never captured: fail it like an
            // unregistered collective instead of hanging the submitter.
            let reason = "graph not captured on this rank".to_string();
            self.finish_invocation(graph_id, tenant, None, Some(reason));
            return;
        };
        self.shared.graph_runs.lock().insert(
            (graph_id, run),
            GraphRun {
                graph: Arc::clone(&graph),
                remaining: graph.nodes.len(),
            },
        );
        for (node, graph_node) in graph.nodes.iter().enumerate() {
            let coll_id = graph_node.op.coll_id();
            let mut ctx = DynamicContext::new(
                run,
                graph_node.op.send_buffer().clone(),
                graph_node.op.recv_buffer().clone(),
            );
            ctx.graph = Some(GraphTag {
                graph_id,
                run,
                node: node as u32,
            });
            self.shared.contexts.enqueue_invocation(coll_id, ctx);
            let tenant = self.track(coll_id, Some(&graph_node.reg));
            self.shared
                .telemetry
                .record_queue_len(coll_id, tenant, self.scheduler.len() as u64);
        }
    }

    /// Route a graph-tagged invocation's completion: count the node down
    /// against its run and — when the run's last node finishes — tear the
    /// run down, clear the graph's in-flight guard and enqueue the graph's
    /// single CQE (a fused node wrote its members' recv buffers in place). A
    /// failed node records its error under the *graph* id (first failure
    /// wins) and still counts down, so the replay's completion always fires.
    pub(super) fn complete_graph_node(&mut self, tag: GraphTag, failed: Option<String>) {
        if let Some(reason) = failed {
            self.shared
                .errors
                .lock()
                .entry(tag.graph_id)
                .or_insert(reason);
        }
        let finished = {
            let mut runs = self.shared.graph_runs.lock();
            let key = (tag.graph_id, tag.run);
            let Some(state) = runs.get_mut(&key) else {
                debug_assert!(false, "graph node completed without a matching run");
                return;
            };
            state.remaining -= 1;
            if state.remaining == 0 {
                Some(runs.remove(&key).expect("run present").graph)
            } else {
                None
            }
        };
        if let Some(graph) = finished {
            graph.in_flight.store(false, Ordering::Release);
            self.enqueue_completion(tag.graph_id, graph.tenant());
        }
    }
}
