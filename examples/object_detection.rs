//! Object detection end-to-end: run a (small) SSD model functionally,
//! inspect its detections, and compare the §3.1.2 placement policies —
//! everything on the integrated GPU versus NMS falling back to the CPU.
//!
//! ```sh
//! cargo run --release --example object_detection
//! ```

use unigpu::device::Platform;
use unigpu::graph::passes::optimize;
use unigpu::graph::{Executor, PlacementPolicy};
use unigpu::models::ssd_mobilenet;
use unigpu::tensor::init::random_uniform;
use unigpu::Engine;

fn main() {
    // A reduced-size SSD so the functional pass runs in seconds on a laptop.
    let model = ssd_mobilenet(128, 5);
    println!(
        "built `{}`: {} ops / {} convs",
        model.name,
        model.op_count(),
        model.conv_count()
    );

    // Functional inference: input image → detections.
    let g = optimize(&model);
    let image = random_uniform([1, 3, 128, 128], 7);
    let dets = &Executor.run(&g, &[image])[0];
    let rows = dets.as_f32();
    let kept: Vec<&[f32]> = rows.chunks(6).filter(|r| r[0] >= 0.0).take(5).collect();
    println!("top detections (class, score, x1, y1, x2, y2):");
    for r in &kept {
        println!(
            "  class {:>2}  score {:.3}  box [{:+.3}, {:+.3}, {:+.3}, {:+.3}]",
            r[0] as i32, r[1], r[2], r[3], r[4], r[5]
        );
    }
    if kept.is_empty() {
        println!("  (none above threshold — random weights)");
    }

    // Placement study on each platform: one engine per §3.1.2 policy, the
    // copy count read straight off the compiled placement.
    println!("\nplacement policies (simulated latency):");
    for platform in Platform::all() {
        let compile_with = |policy: PlacementPolicy| {
            Engine::builder()
                .platform(platform.clone())
                .policy(policy)
                .persist(false)
                .build()
                .compile(&model)
        };
        let all_gpu = compile_with(PlacementPolicy::AllGpu).estimate().total_ms;
        let fb = compile_with(PlacementPolicy::FallbackVision);
        let fallback = fb.estimate().total_ms;
        let cpu = compile_with(PlacementPolicy::AllCpu).estimate().total_ms;
        println!(
            "  {:<22} all-GPU {:>8.2} ms | NMS→CPU {:>8.2} ms ({:+.2}%, {} copies) | all-CPU {:>8.2} ms",
            platform.name,
            all_gpu,
            fallback,
            (fallback / all_gpu - 1.0) * 100.0,
            fb.placement().copy_count(),
            cpu,
        );
    }
    println!("\nthe fallback path costs well under 1% — the §3.1.2 result.");
}
