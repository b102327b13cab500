//! Register-file layout and release-schedule lowering for the execution
//! tape.
//!
//! The tape executor (`sod2-runtime::tape`) runs a flat instruction
//! stream against a dense register file. Both the file layout and the
//! points at which registers are released are *static*: registers are
//! indexed by `TensorId`, and a tensor's last use is a fixed position in
//! the planned node order because consumer occurrences never change at
//! runtime (dead branches still retire their release points — deadness is
//! a value, not absence, in the executor's environment). This module
//! replays the executor's per-occurrence refcount discipline once at
//! compile time, so per-inference execution needs no refcounts at all.

use sod2_ir::{Graph, NodeId, TensorId};

/// The static register/release layout of one compiled plan.
#[derive(Debug, Clone)]
pub struct TapeLayout {
    /// Registers in the file — one per graph tensor (`TensorId.0` is the
    /// register index, so concurrently-live tensors can never alias).
    pub register_count: usize,
    /// `releases[i]` = tensors whose remaining uses reach zero while
    /// executing `node_order[i]`, in the order the executor's decrement
    /// loop would release them. Graph outputs never appear (they are held
    /// to the end of the run), and tensors with no consumers are never
    /// released — both matching the runtime refcount discipline exactly.
    pub releases: Vec<Vec<TensorId>>,
}

/// Lowers a planned node order to the static release schedule by
/// replaying the executor's refcount algorithm at compile time: every
/// input occurrence of every node decrements its tensor's count, and the
/// occurrence that takes a count to zero becomes that tensor's release
/// point. Node orders always cover every node, so the simulation sees
/// every occurrence the runtime would.
pub fn plan_tape_layout(graph: &Graph, node_order: &[NodeId]) -> TapeLayout {
    let register_count = graph.num_tensors();
    let consumer_index = graph.consumer_index();
    // Initial remaining-use count per tensor key: consumer *occurrences*
    // plus one for graph outputs.
    let mut remaining = vec![0u32; register_count];
    for t in graph.tensor_ids() {
        let mut n = consumer_index.get(&t).map(Vec::len).unwrap_or(0);
        if graph.outputs().contains(&t) {
            n += 1; // held to the end of the run
        }
        remaining[t.0 as usize] = n as u32;
    }
    let mut releases: Vec<Vec<TensorId>> = Vec::with_capacity(node_order.len());
    for &nid in node_order {
        let mut here: Vec<TensorId> = Vec::new();
        for &t in &graph.node(nid).inputs {
            let key = t.0 as usize;
            remaining[key] = remaining[key].saturating_sub(1);
            if remaining[key] == 0 && !here.contains(&t) {
                here.push(t);
            }
        }
        releases.push(here);
    }
    TapeLayout {
        register_count,
        releases,
    }
}
