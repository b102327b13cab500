//! Executor integration tests: correctness, control flow, and the
//! accounting effects that power the paper's optimization comparisons.

use sod2_device::DeviceProfile;
use sod2_fusion::{fuse, FusionPolicy};
use sod2_ir::{BinaryOp, ConstData, DType, Graph, Op, TensorId, UnaryOp};
use sod2_mvc::VersionTable;
use sod2_rdp::analyze;
use sod2_runtime::{
    compile_tape, execute, execute_tape, ArenaBacking, ExecConfig, ExecError, RunOutcome,
};
use sod2_sym::DimExpr;
use sod2_tensor::Tensor;

/// Lowers `g` in topological order and runs its tape once with
/// intermediates served from `backing`.
fn execute_on_arena(
    g: &Graph,
    inputs: &[Tensor],
    backing: ArenaBacking<'_>,
) -> Result<RunOutcome, ExecError> {
    let order = g.topo_order();
    let layout = sod2_plan::plan_tape_layout(g, &order);
    let tape = compile_tape(g, &layout, &order, None, false, None, None, None)?;
    execute_tape(
        g,
        inputs,
        &tape,
        &ExecConfig::default(),
        Some(backing),
        false,
    )
}

fn relu_chain(n: usize) -> Graph {
    let mut g = Graph::new();
    let mut t = g.add_input("x", DType::F32, vec![DimExpr::sym("N")]);
    for i in 0..n {
        t = g.add_simple(
            format!("relu{i}"),
            Op::Unary(UnaryOp::Relu),
            &[t],
            DType::F32,
        );
    }
    g.mark_output(t);
    g
}

#[test]
fn chain_executes_correctly() {
    let g = relu_chain(3);
    let out = execute(
        &g,
        &[Tensor::from_f32(&[4], vec![-2.0, -1.0, 0.5, 3.0])],
        &ExecConfig::default(),
    )
    .expect("run");
    assert_eq!(out.outputs[0].as_f32().expect("f32"), &[0.0, 0.0, 0.5, 3.0]);
    assert_eq!(out.trace.kernel_count(), 3);
}

#[test]
fn switch_combine_selects_branch() {
    // Switch routes x to relu (branch 0) or neg (branch 1).
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![2.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    let b1 = g.add_simple("b1", Op::Unary(UnaryOp::Neg), &[br[1]], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 2 },
        &[b0, b1, sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[2], vec![-1.0, 2.0]);
    let run = |s: i64, all: bool| {
        let cfg = ExecConfig {
            execute_all_branches: all,
            ..Default::default()
        };
        execute(&g, &[x_val.clone(), Tensor::from_i64(&[1], vec![s])], &cfg).expect("run")
    };

    let r0 = run(0, false);
    assert_eq!(r0.outputs[0].as_f32().expect("f32"), &[0.0, 2.0]);
    let r1 = run(1, false);
    assert_eq!(r1.outputs[0].as_f32().expect("f32"), &[1.0, -2.0]);
    // Dead branch skipped: only one branch kernel ran.
    assert_eq!(r0.trace.kernel_count(), 1);
    assert_eq!(r0.branches_executed, 1);

    // Execute-all mode: both branches run, same final answer.
    let ra = run(0, true);
    assert_eq!(ra.outputs[0].as_f32().expect("f32"), &[0.0, 2.0]);
    assert_eq!(ra.trace.kernel_count(), 2);
    assert_eq!(ra.branches_executed, 2);
}

#[test]
fn fusion_reduces_materialized_memory_not_results() {
    let g = relu_chain(6);
    let input = Tensor::from_f32(&[1024], vec![0.5; 1024]);
    let plain = execute(&g, std::slice::from_ref(&input), &ExecConfig::default()).expect("run");

    let rdp = analyze(&g);
    let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
    let cfg = ExecConfig {
        fusion: Some(&plan),
        ..Default::default()
    };
    let fused = execute(&g, &[input], &cfg).expect("run");
    assert!(plain.outputs[0].approx_eq(&fused.outputs[0], 0.0));
    assert!(fused.peak_live_bytes < plain.peak_live_bytes);
    assert!(fused.trace.kernel_count() < plain.trace.kernel_count());
    assert!(fused.alloc_sizes.len() < plain.alloc_sizes.len());
}

#[test]
fn version_table_changes_cost_not_output() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("M"), 64.into()]);
    let w = g.add_const(
        "w",
        &[64, 32],
        ConstData::F32((0..64 * 32).map(|i| (i % 13) as f32 * 0.01).collect()),
    );
    let y = g.add_simple("mm", Op::MatMul, &[x, w], DType::F32);
    g.mark_output(y);

    let input = Tensor::from_f32(&[128, 64], (0..128 * 64).map(|i| (i % 7) as f32).collect());
    let plain = execute(&g, std::slice::from_ref(&input), &ExecConfig::default()).expect("run");
    let profile = DeviceProfile::s888_cpu();
    let table = VersionTable::tune(&profile, 42);
    let cfg = ExecConfig {
        version_table: Some(&table),
        ..Default::default()
    };
    let tuned = execute(&g, &[input], &cfg).expect("run");
    assert!(plain.outputs[0].approx_eq(&tuned.outputs[0], 1e-3));
    // Tuned latency is lower on the same device profile.
    let t_plain = plain.trace.price(&profile).total();
    let t_tuned = tuned.trace.price(&profile).total();
    assert!(t_tuned < t_plain, "tuned {t_tuned} vs plain {t_plain}");
}

#[test]
fn concrete_shapes_recorded_and_match_rdp() {
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 8.into()]);
    let s = g.add_simple("shape", Op::Shape, &[x], DType::I64);
    let c = g.add_simple("cos", Op::ConstantOfShape { value: 1.0 }, &[s], DType::F32);
    let y = g.add_simple("mul", Op::Binary(BinaryOp::Mul), &[x, c], DType::F32);
    g.mark_output(y);
    let rdp = analyze(&g);

    let run = execute(
        &g,
        &[Tensor::from_f32(&[5, 8], vec![2.0; 40])],
        &ExecConfig::default(),
    )
    .expect("run");
    // RDP's symbolic prediction evaluated at N=5 matches observed shapes.
    let mut b = sod2_sym::Bindings::new();
    b.insert("N".into(), 5);
    for t in [s, c, y] {
        let predicted = rdp.shape(t).eval(&b).expect("fully symbolic");
        let observed: Vec<i64> = run.concrete_shapes[&t].iter().map(|&d| d as i64).collect();
        assert_eq!(predicted, observed, "tensor {t}");
    }
}

#[test]
fn dead_outputs_error() {
    // A graph output inside a dead branch must error, not silently vanish.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![1.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    g.mark_output(b0);
    let err = execute(
        &g,
        &[
            Tensor::from_f32(&[1], vec![1.0]),
            Tensor::from_i64(&[1], vec![1]),
        ],
        &ExecConfig::default(),
    );
    assert!(err.is_err());
}

#[test]
fn peak_accounting_frees_dead_tensors() {
    let g = relu_chain(8);
    let input = Tensor::from_f32(&[256], vec![1.0; 256]);
    let run = execute(&g, &[input], &ExecConfig::default()).expect("run");
    // At most two intermediates live at once in a chain (producer+consumer).
    assert!(run.peak_live_bytes <= 2 * 256 * 4);
    let _ = TensorId(0);
}

#[test]
fn fused_interpreter_matches_nodewise_execution() {
    use sod2_runtime::TraceEvent;
    // relu → mul-by-scalar → add-residual → sigmoid chains appear all over
    // the zoo; check the single-pass interpreter agrees with node-wise
    // execution and actually engages.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![DimExpr::sym("N"), 8.into()]);
    let scale = g.add_const("s", &[1], ConstData::F32(vec![0.5]));
    let r = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let m = g.add_simple("mul", Op::Binary(BinaryOp::Mul), &[r, scale], DType::F32);
    let a = g.add_simple("add", Op::Binary(BinaryOp::Add), &[m, x], DType::F32);
    let y = g.add_simple("sig", Op::Unary(UnaryOp::Sigmoid), &[a], DType::F32);
    g.mark_output(y);

    let rdp = analyze(&g);
    let plan = fuse(&g, &rdp, FusionPolicy::Rdp);
    assert_eq!(plan.layer_count(), 1, "the whole graph should fuse");
    let input = Tensor::from_f32(&[3, 8], (0..24).map(|i| i as f32 - 12.0).collect());

    let nodewise = execute(
        &g,
        std::slice::from_ref(&input),
        &ExecConfig {
            fusion: Some(&plan),
            ..Default::default()
        },
    )
    .expect("nodewise");
    let fused = execute(
        &g,
        &[input],
        &ExecConfig {
            fusion: Some(&plan),
            fused_interpreter: true,
            ..Default::default()
        },
    )
    .expect("fused");
    assert!(nodewise.outputs[0].approx_eq(&fused.outputs[0], 1e-6));
    // The fused path emits a single fused kernel event.
    let fused_events: Vec<_> = fused
        .trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Kernel {
                name, fused_ops, ..
            } if name.starts_with("fused[") => Some(*fused_ops),
            _ => None,
        })
        .collect();
    assert_eq!(fused_events, vec![4]);
    // And genuinely fewer materializations.
    assert_eq!(fused.alloc_sizes.len(), 1);
    assert_eq!(nodewise.alloc_sizes.len(), 1, "accounting parity");
}

#[test]
fn fused_interpreter_agrees_on_zoo_models() {
    use sod2_fusion::{fuse as fuse_plan, FusionPolicy as FP};
    for model in sod2_models::all_models(sod2_models::ModelScale::Tiny) {
        let rdp = analyze(&model.graph);
        let plan = fuse_plan(&model.graph, &rdp, FP::Rdp);
        let mut rng = sod2_prng::SeedableRng::seed_from_u64(77);
        let (_, inputs) = model.sample_inputs(&mut rng);
        let a = execute(
            &model.graph,
            &inputs,
            &ExecConfig {
                fusion: Some(&plan),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let b = execute(
            &model.graph,
            &inputs,
            &ExecConfig {
                fusion: Some(&plan),
                fused_interpreter: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        for (x, y) in a.outputs.iter().zip(&b.outputs) {
            assert!(x.approx_eq(y, 1e-4), "{} fused-interp differs", model.name);
        }
    }
}

#[test]
fn three_way_switch_routes_correctly() {
    // Multi-branch routing (RaNet-style): selector picks among relu / neg /
    // tanh; only the chosen branch executes natively.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![3.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 3 }, &[x, sel], DType::F32);
    let b0 = g.add_simple("b0", Op::Unary(UnaryOp::Relu), &[br[0]], DType::F32);
    let b1 = g.add_simple("b1", Op::Unary(UnaryOp::Neg), &[br[1]], DType::F32);
    let b2 = g.add_simple("b2", Op::Unary(UnaryOp::Tanh), &[br[2]], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 3 },
        &[b0, b1, b2, sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[3], vec![-1.0, 0.0, 2.0]);
    let expect: [&dyn Fn(f32) -> f32; 3] = [&|v| v.max(0.0), &|v| -v, &|v| v.tanh()];
    for s in 0..3i64 {
        let out = execute(
            &g,
            &[x_val.clone(), Tensor::from_i64(&[1], vec![s])],
            &ExecConfig::default(),
        )
        .expect("runs");
        let got = out.outputs[0].as_f32().expect("f32");
        for (g_v, &x_v) in got.iter().zip(&[-1.0f32, 0.0, 2.0]) {
            assert!((g_v - expect[s as usize](x_v)).abs() < 1e-6, "sel={s}");
        }
        assert_eq!(out.trace.kernel_count(), 1, "exactly one branch ran");
        assert_eq!(out.branches_executed, 1);
    }
}

#[test]
fn arena_backing_shrinks_alloc_stream_and_matches_heap() {
    use sod2_mem::{Arena, MemoryPlan};
    use std::collections::HashMap;

    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("exp", Op::Unary(UnaryOp::Exp), &[a], DType::F32);
    let c = g.add_simple("neg", Op::Unary(UnaryOp::Neg), &[b], DType::F32);
    g.mark_output(c);
    let inputs = [Tensor::from_f32(&[4], vec![-2.0, -0.5, 0.5, 3.0])];

    let heap = execute(&g, &inputs, &ExecConfig::default()).expect("heap run");
    assert_eq!(heap.alloc_sizes.len(), 3);
    assert_eq!(heap.arena_backed, 0);

    // Every intermediate gets a private 16-byte slot.
    let keys = [a.0 as usize, b.0 as usize, c.0 as usize];
    let plan = MemoryPlan {
        offsets: keys.iter().enumerate().map(|(i, &k)| (k, i * 16)).collect(),
        peak: 48,
    };
    let sizes: HashMap<usize, usize> = keys.iter().map(|&k| (k, 16)).collect();
    let bounded = std::collections::HashSet::new();
    let mut arena = Arena::new(plan);
    let backing = ArenaBacking {
        arena: &mut arena,
        sizes: &sizes,
        bounded: &bounded,
    };
    let run = execute_on_arena(&g, &inputs, backing).expect("arena run");
    assert!(run.alloc_sizes.is_empty(), "all intermediates planned");
    assert_eq!(run.arena_backed, 3);
    assert_eq!(
        run.outputs[0].payload_le_bytes(),
        heap.outputs[0].payload_le_bytes(),
        "arena-served output must match the heap run bitwise"
    );
}

#[test]
fn arena_size_mismatch_falls_back_to_heap() {
    use sod2_mem::{Arena, MemoryPlan};
    use std::collections::HashMap;

    let g = relu_chain(1);
    let t_out = *g.outputs().first().expect("one output");
    let plan = MemoryPlan {
        offsets: [(t_out.0 as usize, 0usize)].into_iter().collect(),
        peak: 8,
    };
    // The plan believed the tensor was 8 bytes; at runtime it is 16.
    let sizes: HashMap<usize, usize> = [(t_out.0 as usize, 8usize)].into_iter().collect();
    let bounded = std::collections::HashSet::new();
    let mut arena = Arena::new(plan);
    let backing = ArenaBacking {
        arena: &mut arena,
        sizes: &sizes,
        bounded: &bounded,
    };
    let run = execute_on_arena(
        &g,
        &[Tensor::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])],
        backing,
    )
    .expect("run");
    assert_eq!(run.arena_backed, 0);
    assert_eq!(
        run.alloc_sizes,
        vec![16],
        "mismatched tensor heap-allocated"
    );
    assert_eq!(run.outputs[0].as_f32().expect("f32"), &[1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn arena_aliasing_of_live_tensors_is_detected() {
    use sod2_mem::{Arena, MemoryPlan};
    use std::collections::HashMap;

    // a and b are simultaneously live (both feed the add); an unsound
    // plan placing them at the same offset must be caught by readback
    // verification, not silently corrupt the result.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![4.into()]);
    let a = g.add_simple("relu", Op::Unary(UnaryOp::Relu), &[x], DType::F32);
    let b = g.add_simple("exp", Op::Unary(UnaryOp::Exp), &[x], DType::F32);
    let c = g.add_simple("add", Op::Binary(BinaryOp::Add), &[a, b], DType::F32);
    g.mark_output(c);

    let plan = MemoryPlan {
        offsets: [(a.0 as usize, 0usize), (b.0 as usize, 0usize)]
            .into_iter()
            .collect(),
        peak: 16,
    };
    let sizes: HashMap<usize, usize> = [(a.0 as usize, 16usize), (b.0 as usize, 16usize)]
        .into_iter()
        .collect();
    let bounded = std::collections::HashSet::new();
    let mut arena = Arena::new(plan);
    let backing = ArenaBacking {
        arena: &mut arena,
        sizes: &sizes,
        bounded: &bounded,
    };
    let err = execute_on_arena(
        &g,
        &[Tensor::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0])],
        backing,
    )
    .expect_err("aliasing plan must fail");
    assert!(
        matches!(err, ExecError::Memory(_)),
        "expected Memory error, got: {err}"
    );
}

#[test]
fn control_flow_passthrough_shares_payloads() {
    // Switch and Combine route tensors without computing: with Arc-shared
    // payloads the routed output is the same allocation as the input, not
    // a deep copy.
    let mut g = Graph::new();
    let x = g.add_input("x", DType::F32, vec![3.into()]);
    let sel = g.add_input("sel", DType::I64, vec![1.into()]);
    let br = g.add_node("sw", Op::Switch { num_branches: 2 }, &[x, sel], DType::F32);
    let y = g.add_simple(
        "cmb",
        Op::Combine { num_branches: 2 },
        &[br[0], br[1], sel],
        DType::F32,
    );
    g.mark_output(y);

    let x_val = Tensor::from_f32(&[3], vec![1.0, 2.0, 3.0]);
    let out = execute(
        &g,
        &[x_val.clone(), Tensor::from_i64(&[1], vec![0])],
        &ExecConfig::default(),
    )
    .expect("run");
    assert!(
        out.outputs[0].shares_payload(&x_val),
        "pass-through output must share the input's payload"
    );
}
