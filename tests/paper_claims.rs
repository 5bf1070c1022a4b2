//! Structural claims of the paper's evaluation, verified mechanically:
//! each test encodes a *shape* of a result (who wins, where the effect is
//! largest) rather than an absolute number. Most read the regenerated
//! tables, the same data `unigpu paper` prints into `PAPER_TABLES.json`.

use std::sync::OnceLock;
use unigpu::baselines::paper::{tables, BeforeAfter, OverallRow, OverallTable, PaperTables};
use unigpu::device::Platform;
use unigpu::models::{mobilenet, ssd_mobilenet};
use unigpu::ops::vision::sort::{naive_segment_argsort, segmented_argsort};
use unigpu::Engine;

/// The tables, computed once for every test in this binary.
fn paper() -> &'static PaperTables {
    static TABLES: OnceLock<PaperTables> = OnceLock::new();
    TABLES.get_or_init(tables)
}

fn row<'a>(table: &'a OverallTable, model: &str) -> &'a OverallRow {
    table
        .rows
        .iter()
        .find(|r| r.model == model)
        .expect("model in table")
}

fn speedup(r: &BeforeAfter) -> f64 {
    r.before_ms / r.after_ms
}

/// The committed artifact is what the generator produces today. After an
/// intended change to any simulated number, regenerate it with
/// `cargo run --release -- paper > PAPER_TABLES.json`.
#[test]
fn paper_tables_json_is_committed() {
    let committed = include_str!("../PAPER_TABLES.json");
    assert!(
        format!("{}\n", paper().to_json()) == committed,
        "PAPER_TABLES.json is stale: regenerate it with `cargo run --release -- paper > PAPER_TABLES.json`"
    );
}

/// §1/§4.2: "compared to the state-of-the-art solutions ... our solution
/// achieves similar, or even better (up to 1.62×) performance" — on Jetson
/// Nano we beat cuDNN on classification models.
#[test]
fn ours_beats_cudnn_on_nano_classification() {
    for model in ["MobileNet1.0", "SqueezeNet1.0"] {
        let r = row(&paper().table3, model);
        let base = r.vendor_ms.expect("cuDNN runs classification");
        assert!(
            base > r.ours_tuned_ms,
            "{model}: cuDNN {base:.1} should lose to ours {:.1}",
            r.ours_tuned_ms
        );
    }
}

/// Table 1's inversion: OpenVINO's mature Intel depthwise kernel beats our
/// stack on MobileNet (speedup 0.62×), because "our depth-wise convolution
/// has not been fully optimized for Intel Graphics" (§4.2).
#[test]
fn openvino_wins_mobilenet_on_deeplens() {
    let intel = row(&paper().table1, "MobileNet1.0");
    let vino = intel.vendor_ms.expect("OpenVINO runs MobileNet");
    assert!(
        vino < intel.ours_tuned_ms,
        "OpenVINO {vino:.1} must beat ours {:.1} on Intel depthwise",
        intel.ours_tuned_ms
    );
    // ...but the same MobileNet on Mali is OURS to win (Table 2: 1.21x).
    let mali = row(&paper().table2, "MobileNet1.0");
    let acl = mali.vendor_ms.expect("ACL runs MobileNet");
    assert!(
        acl > mali.ours_tuned_ms,
        "ACL {acl:.1} should lose to ours {:.1} on Mali",
        mali.ours_tuned_ms
    );
}

/// Table 4's footnote: "aiSage benefits most from the vision-specific
/// operations ... Mali GPUs do not have shared memory, therefore load
/// balancing, data assessment and branch divergence matter more". Holds for
/// every detection model.
#[test]
fn mali_benefits_most_from_vision_ops() {
    let table4 = &paper().table4;
    for mali in table4
        .iter()
        .filter(|r| r.platform == Platform::aisage().name)
    {
        for other in table4.iter().filter(|r| r.model == mali.model) {
            assert!(
                speedup(mali) >= speedup(other),
                "{}: Mali ({:.2}x) must benefit at least as much as {} ({:.2}x)",
                mali.model,
                speedup(mali),
                other.platform,
                speedup(other)
            );
        }
    }
}

/// Table 5's footnote: SqueezeNet improves the most under tuning because
/// "the network is fairly new so there is no manually written implementation
/// of it in good performance" — its tuning speedup must exceed ResNet50's on
/// every platform.
#[test]
fn squeezenet_gains_more_from_tuning_than_resnet() {
    let table5 = &paper().table5;
    for plat in Platform::all() {
        let gain = |model: &str| {
            speedup(
                table5
                    .iter()
                    .find(|r| r.platform == plat.name && r.model == model)
                    .expect("Table 5 row"),
            )
        };
        let (sq, rn) = (gain("SqueezeNet1.0"), gain("ResNet50_v1"));
        assert!(
            sq > rn,
            "{}: SqueezeNet ({sq:.2}x) should out-gain ResNet50 ({rn:.2}x)",
            plat.name
        );
    }
}

/// §4.1: wider model coverage — every model of the zoo runs on our stack on
/// every platform, while the Intel baseline covers only half the zoo.
#[test]
fn coverage_is_wider_than_baselines() {
    let t = paper();
    let rows: Vec<&OverallRow> = [&t.table1, &t.table2, &t.table3]
        .iter()
        .flat_map(|t| &t.rows)
        .collect();
    let ours = rows
        .iter()
        .filter(|r| r.ours_untuned_ms > 0.0 && r.ours_tuned_ms > 0.0)
        .count();
    let vendor = rows.iter().filter(|r| r.vendor_ms.is_some()).count();
    assert_eq!(ours, 18);
    assert_eq!(vendor, 15, "OpenVINO misses the 3 detection models");
}

/// §1: the GPU delivers more FLOPs than the accompanying CPU on every
/// platform (5.16×/6.77×/2.48×), so conv-heavy graphs run faster on the GPU.
#[test]
fn gpu_outruns_cpu_on_every_platform() {
    // §1's FLOPs argument presumes decent schedules: tune first (with the
    // untuned fallback the GPU can genuinely lose — Table 5's whole point).
    // The degraded variant is the same model, schedules and all, on the CPU.
    let g = mobilenet(1, 224, 1000);
    for plat in Platform::all() {
        let compiled = Engine::builder()
            .platform(plat.clone())
            .persist(false)
            .tuned(48)
            .build()
            .compile(&g);
        let gpu = compiled.estimate().total_ms;
        let cpu = compiled.degraded().estimate().total_ms;
        assert!(
            cpu > gpu,
            "{}: CPU {cpu:.1} must be slower than GPU {gpu:.1}",
            plat.name
        );
    }
}

/// SSD on aiSage uses 300² inputs (§4.2's memory-limit note) and is
/// correspondingly cheaper than the 512² variant on the other platforms.
#[test]
fn aisage_input_reduction_shrinks_ssd() {
    let engine = Engine::builder()
        .platform(Platform::aisage())
        .persist(false)
        .build();
    let t512 = engine.compile(&ssd_mobilenet(512, 20)).estimate().total_ms;
    let t300 = engine.compile(&ssd_mobilenet(300, 20)).estimate().total_ms;
    assert!(
        t300 < t512 * 0.6,
        "300² must be much cheaper: {t300:.1} vs {t512:.1}"
    );
}

/// Figure 2's worked example: two segments of unequal length, flattened
/// into equal blocks of 4 and merged, sort to each segment's own argsort.
#[test]
fn figure2_worked_example_sorts_each_segment() {
    let data = [0.9, 0.1, 0.5, 0.7, 0.3, 0.8, 0.2, 0.6];
    let offsets = [0, 5, 8];
    let ranks = segmented_argsort(&data, &offsets, 4);
    assert_eq!(ranks, naive_segment_argsort(&data, &offsets));
    assert_eq!(ranks, [0, 3, 2, 4, 1, 0, 2, 1]);
}
