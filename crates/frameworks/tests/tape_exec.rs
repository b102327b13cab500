//! The tape on the full zoo: every model lowers, its outputs match the
//! naive reference interpreter bitwise across arena/heap backing and
//! wavefront on/off, its memory metrics do not depend on the schedule,
//! and its diagnostics come back clean.

use sod2_device::DeviceProfile;
use sod2_frameworks::{Engine, Sod2Engine, Sod2Options};
use sod2_models::{all_models, branchy_demo, DynModel, ModelScale};
use sod2_pool::with_threads;
use sod2_prng::rngs::StdRng;
use sod2_prng::SeedableRng;
use sod2_runtime::reference;
use sod2_tensor::Tensor;

fn inputs_for(model: &DynModel, seed: u64, n: usize) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| model.sample_inputs(&mut rng).1).collect()
}

fn engine_with(model: &DynModel, opts: Sod2Options) -> Sod2Engine {
    Sod2Engine::new(
        model.graph.clone(),
        DeviceProfile::s888_cpu(),
        opts,
        &Default::default(),
    )
}

/// Every zoo model lowers to a non-trivial tape, and the tape covers the
/// whole plan (one register per planned tensor, at least one instruction
/// per non-constant node).
#[test]
fn tape_compiles_for_every_zoo_model() {
    for model in all_models(ModelScale::Tiny) {
        let engine = engine_with(&model, Sod2Options::default());
        let stats = engine
            .tape_stats()
            .unwrap_or_else(|| panic!("{}: tape did not compile", model.name));
        assert!(stats.tape_len > 0, "{}: empty tape", model.name);
        assert!(
            stats.register_count > 0,
            "{}: empty register file",
            model.name
        );
        assert!(
            stats.tape_len <= model.graph.nodes().len(),
            "{}: more instructions than nodes",
            model.name
        );
        assert!(
            stats.register_count >= stats.const_count,
            "{}: more prebuilt consts than registers",
            model.name
        );
    }
}

/// The default engine's tape matches the naive reference interpreter
/// bitwise on all 10 zoo models plus BranchyDemo, 2 seeded inputs each,
/// under arena and heap backing; and the wavefront engine's memory
/// metrics match the serial single-thread engine of the same backing.
#[test]
fn reference_matches_engine_on_zoo() {
    let mut models = all_models(ModelScale::Tiny);
    models.push(branchy_demo(ModelScale::Tiny));
    for model in models {
        let samples = inputs_for(&model, 23, 2);
        for arena in [true, false] {
            let mut engine = engine_with(
                &model,
                Sod2Options {
                    arena_exec: arena,
                    ..Sod2Options::default()
                },
            );
            let mut serial = engine_with(
                &model,
                Sod2Options {
                    arena_exec: arena,
                    wavefront_exec: false,
                    ..Sod2Options::default()
                },
            );
            for inputs in &samples {
                let want = reference::run(&model.graph, inputs).expect("reference run");
                let a = engine.infer(inputs).expect("engine infer");
                let b = with_threads(1, || serial.infer(inputs)).expect("serial infer");
                for (run, mode) in [(&a, "default"), (&b, "serial")] {
                    assert_eq!(run.outputs.len(), want.len());
                    for (x, y) in run.outputs.iter().zip(&want) {
                        assert_eq!(
                            x.payload_le_bytes(),
                            y.payload_le_bytes(),
                            "{} ({mode}, arena={arena}): outputs diverged from the reference",
                            model.name
                        );
                    }
                }
                assert_eq!(
                    a.peak_memory_bytes, b.peak_memory_bytes,
                    "{} (arena={arena}): peak memory diverged",
                    model.name
                );
                assert_eq!(
                    a.alloc_events, b.alloc_events,
                    "{} (arena={arena}): alloc events diverged",
                    model.name
                );
                assert_eq!(
                    a.arena_backed, b.arena_backed,
                    "{} (arena={arena}): arena residency diverged",
                    model.name
                );
            }
        }
    }
}

/// The engine's debug verification runs `verify_tape` over every compiled
/// tape; `diagnose()` must come back clean for the whole zoo.
#[test]
fn tape_diagnostics_clean_on_zoo() {
    let mut rng = StdRng::seed_from_u64(7);
    for model in all_models(ModelScale::Tiny) {
        let inputs = model.sample_inputs(&mut rng).1;
        let mut engine = engine_with(&model, Sod2Options::default());
        let report = engine.diagnose(&inputs).expect("diagnose");
        assert!(
            !report.has_errors(),
            "{}: {}",
            model.name,
            report.render_text(Some(&model.graph))
        );
    }
}
