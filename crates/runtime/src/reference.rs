//! A deliberately naive reference interpreter.
//!
//! This is a test oracle, not an executor: nothing on a serving path
//! calls it. It walks the graph in topological order over a `HashMap`
//! environment and runs every operator through
//! [`sod2_kernels::execute_op`] with default kernel parameters — no
//! fusion, arena, waves, multi-version selection, budget or NaN fences.
//! `<Switch, Combine>` control flow is the only semantics it shares with
//! the tape: an untaken `Switch` arm is a dead value, deadness flows
//! through every consumer, and a `Combine` whose selector is dead (a gate
//! nested inside an untaken arm) yields a dead result. Malformed control
//! flow surfaces as the same typed [`ExecError`]s the tape returns.
//!
//! The differential suites compare tape outputs bitwise against
//! [`run`]; its simplicity is what makes that comparison meaningful.

use crate::executor::{const_tensor, selector, ExecError};
use sod2_ir::{Graph, Op, TensorId};
use sod2_tensor::Tensor;
use std::collections::HashMap;

/// A produced value: `None` marks a dead (untaken-branch) tensor.
type Env = HashMap<TensorId, Option<Tensor>>;

/// Runs `graph` on `inputs` and returns its outputs, in
/// `graph.outputs()` order.
///
/// # Errors
///
/// [`ExecError::BadInputs`] for a wrong input count or a constant with an
/// unknown shape, [`ExecError::ControlFlow`] for a bad selector or a dead
/// graph output, and [`ExecError::Kernel`] for kernel failures.
pub fn run(graph: &Graph, inputs: &[Tensor]) -> Result<Vec<Tensor>, ExecError> {
    let env = eval(graph, inputs)?;
    graph
        .outputs()
        .iter()
        .map(|&t| match env.get(&t) {
            Some(Some(v)) => Ok(v.clone()),
            _ => Err(ExecError::ControlFlow(format!(
                "graph output {t} was never produced (dead branch?)"
            ))),
        })
        .collect()
}

/// Evaluates every node and returns the whole environment.
fn eval(graph: &Graph, inputs: &[Tensor]) -> Result<Env, ExecError> {
    if inputs.len() != graph.inputs().len() {
        return Err(ExecError::BadInputs(format!(
            "expected {} inputs, got {}",
            graph.inputs().len(),
            inputs.len()
        )));
    }
    let mut env = Env::new();
    for t in graph.tensor_ids() {
        let info = graph.tensor(t);
        if let Some(data) = &info.const_data {
            let shape = info
                .shape
                .as_known()
                .ok_or_else(|| ExecError::BadInputs("constant with unknown shape".into()))?;
            env.insert(t, Some(const_tensor(&shape, data)));
        }
    }
    for (&t, x) in graph.inputs().iter().zip(inputs) {
        env.insert(t, Some(x.clone()));
    }
    for nid in graph.topo_order() {
        let node = graph.node(nid);
        let get = |t: TensorId| -> Result<Option<&Tensor>, ExecError> {
            match env.get(&t) {
                Some(v) => Ok(v.as_ref()),
                None => Err(ExecError::ControlFlow(format!("{t} was never produced"))),
            }
        };
        let live = |t: TensorId| -> Result<&Tensor, ExecError> {
            get(t)?.ok_or_else(|| ExecError::ControlFlow(format!("{t} is dead")))
        };
        let results: Vec<Option<Tensor>> = match &node.op {
            Op::Combine { num_branches } => match get(node.inputs[*num_branches])? {
                None => vec![None],
                Some(s) => {
                    let sel = in_range(selector(s)?, *num_branches)?;
                    vec![Some(live(node.inputs[sel])?.clone())]
                }
            },
            _ if node.inputs.iter().any(|&t| matches!(get(t), Ok(None))) => {
                vec![None; node.outputs.len()]
            }
            Op::Switch { num_branches } => {
                let data = live(node.inputs[0])?;
                let sel = in_range(selector(live(node.inputs[1])?)?, *num_branches)?;
                (0..*num_branches)
                    .map(|k| (k == sel).then(|| data.clone()))
                    .collect()
            }
            op => {
                let ins = node
                    .inputs
                    .iter()
                    .map(|&t| live(t))
                    .collect::<Result<Vec<_>, _>>()?;
                sod2_kernels::execute_op(op, &ins)?
                    .into_iter()
                    .map(Some)
                    .collect()
            }
        };
        for (&t, r) in node.outputs.iter().zip(results) {
            env.insert(t, r);
        }
    }
    Ok(env)
}

fn in_range(sel: i64, num_branches: usize) -> Result<usize, ExecError> {
    usize::try_from(sel)
        .ok()
        .filter(|&s| s < num_branches)
        .ok_or_else(|| {
            ExecError::ControlFlow(format!(
                "selector {sel} out of range for {num_branches} branches"
            ))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sod2_ir::{DType, UnaryOp};

    fn sel(s: i64) -> Tensor {
        Tensor::from_i64(&[1], vec![s])
    }

    /// `Switch` into a three-op chain (arm 0) and a single op (arm 1),
    /// merged by `Combine`. Returns the graph and the chain's tensors.
    fn gated_chain() -> (Graph, Vec<TensorId>) {
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![3.into()]);
        let s = g.add_input("sel", DType::I64, vec![1.into()]);
        let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, s], DType::F32);
        let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
        let b = g.add_simple("neg", Op::Unary(UnaryOp::Neg), &[a], DType::F32);
        let c = g.add_simple("exp", Op::Unary(UnaryOp::Exp), &[b], DType::F32);
        let d = g.add_simple("abs", Op::Unary(UnaryOp::Abs), &[br[1]], DType::F32);
        let y = g.add_simple(
            "cmb",
            Op::Combine { num_branches: 2 },
            &[c, d, s],
            DType::F32,
        );
        g.mark_output(y);
        (g, vec![a, b, c])
    }

    #[test]
    fn dead_arm_propagates_through_a_chain() {
        let (g, chain) = gated_chain();
        let x = Tensor::from_f32(&[3], vec![-1.0, 0.5, 2.0]);
        let env = eval(&g, &[x.clone(), sel(1)]).expect("runs");
        for t in &chain {
            assert!(
                matches!(env.get(t), Some(None)),
                "{t} should be dead when arm 1 is taken"
            );
        }
        let out = run(&g, &[x.clone(), sel(1)]).expect("runs");
        assert_eq!(out[0].as_f32().expect("f32"), &[1.0, 0.5, 2.0]);
        // The taken chain computes exp(-relu(x)).
        let out = run(&g, &[x, sel(0)]).expect("runs");
        let want: Vec<f32> = [-1.0f32, 0.5, 2.0]
            .iter()
            .map(|v| (-v.max(0.0)).exp())
            .collect();
        assert_eq!(out[0].as_f32().expect("f32"), want.as_slice());
    }

    #[test]
    fn nested_gate_with_dead_selector_yields_dead_result() {
        // The inner gate's selector is routed through the outer Switch, so
        // when the outer arm 1 is taken the inner Combine sees a dead
        // selector and its result must be dead, not an error.
        let mut g = Graph::new();
        let x = g.add_input("x", DType::F32, vec![2.into()]);
        let outer = g.add_input("outer", DType::I64, vec![1.into()]);
        let inner = g.add_input("inner", DType::I64, vec![1.into()]);
        let xs = g.add_node(
            "sw_x",
            Op::Switch { num_branches: 2 },
            &[x, outer],
            DType::F32,
        );
        let ss = g.add_node(
            "sw_sel",
            Op::Switch { num_branches: 2 },
            &[inner, outer],
            DType::I64,
        );
        let ib = g.add_node(
            "sw_inner",
            Op::Switch { num_branches: 2 },
            &[xs[0], ss[0]],
            DType::F32,
        );
        let i0 = g.add_simple("neg", Op::Unary(UnaryOp::Neg), &[ib[0]], DType::F32);
        let i1 = g.add_simple("abs", Op::Unary(UnaryOp::Abs), &[ib[1]], DType::F32);
        let inner_y = g.add_simple(
            "cmb_inner",
            Op::Combine { num_branches: 2 },
            &[i0, i1, ss[0]],
            DType::F32,
        );
        let o1 = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[xs[1]], DType::F32);
        let y = g.add_simple(
            "cmb_outer",
            Op::Combine { num_branches: 2 },
            &[inner_y, o1, outer],
            DType::F32,
        );
        g.mark_output(y);
        let xv = Tensor::from_f32(&[2], vec![-3.0, 4.0]);

        let env = eval(&g, &[xv.clone(), sel(1), sel(0)]).expect("runs");
        assert!(matches!(env.get(&ss[0]), Some(None)), "selector is dead");
        assert!(
            matches!(env.get(&inner_y), Some(None)),
            "a Combine with a dead selector yields a dead result"
        );
        let out = run(&g, &[xv.clone(), sel(1), sel(0)]).expect("runs");
        assert_eq!(out[0].as_f32().expect("f32"), &[0.0, 4.0]);

        // Outer arm 0 taken: the inner gate is live and picks its arm 1.
        let out = run(&g, &[xv, sel(0), sel(1)]).expect("runs");
        assert_eq!(out[0].as_f32().expect("f32"), &[3.0, 4.0]);
    }

    #[test]
    fn out_of_range_selector_is_a_control_flow_error() {
        let (g, _) = gated_chain();
        let x = Tensor::from_f32(&[3], vec![1.0, 2.0, 3.0]);
        for s in [2, -1] {
            let err = run(&g, &[x.clone(), sel(s)]).expect_err("bad selector");
            assert!(
                matches!(err, ExecError::ControlFlow(_)),
                "selector {s}: got {err:?}"
            );
        }
    }

    #[test]
    fn wrong_input_count_is_bad_inputs() {
        let (g, _) = gated_chain();
        let err = run(&g, &[sel(0)]).expect_err("one input missing");
        assert!(matches!(err, ExecError::BadInputs(_)), "got {err:?}");
    }
}
