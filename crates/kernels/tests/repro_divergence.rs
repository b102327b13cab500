use sod2_kernels::{gemm_naive, gemm_tiled, GemmParams, LoopOrder, MicroKernel};
use sod2_pool::with_threads;

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match s % 61 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                _ => ((s >> 40) as f32 / (1u64 << 23) as f32 - 0.5) * 8.0,
            }
        })
        .collect()
}

#[test]
fn find_divergence() {
    let (m, k, n) = (96, 40, 72);
    let a = fill(11, m * k);
    let b = fill(12, k * n);
    let naive = gemm_naive(&a, &b, m, k, n);
    let params = GemmParams {
        tile_m: 16,
        tile_n: 16,
        tile_k: 8,
        unroll: 4,
        loop_order: LoopOrder::Ikj,
        micro: MicroKernel::Scalar,
    };
    let out = with_threads(1, || gemm_tiled(&a, &b, m, k, n, params));
    let mut count = 0;
    for i in 0..m {
        for j in 0..n {
            let x = naive[i * n + j];
            let y = out[i * n + j];
            if x.to_bits() != y.to_bits() {
                if count < 5 {
                    // manual reference for this element
                    let mut acc = 0f32;
                    let mut trail = String::new();
                    for p in 0..k {
                        acc += a[i * k + p] * b[p * n + j];
                        if p < 12 {
                            trail.push_str(&format!("p{p}:{acc:e} "));
                        }
                    }
                    println!(
                        "i={i} j={j} naive={x:e}({:#x}) tiled={y:e}({:#x}) manual={acc:e}",
                        x.to_bits(),
                        y.to_bits()
                    );
                }
                count += 1;
            }
        }
    }
    println!("total diverging: {count} of {}", m * n);
    assert_eq!(count, 0);
}
