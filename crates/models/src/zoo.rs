//! The model zoo index used by the benchmark harness — the exact model ×
//! input-size grid of the paper's Tables 1–3.

use crate::{mobilenet, resnet50, squeezenet, ssd_mobilenet, ssd_resnet50, yolov3};
use unigpu_graph::Graph;

/// One zoo entry: a named model constructor at the evaluation input size.
pub struct ModelEntry {
    /// Name as printed in the paper's tables.
    pub name: &'static str,
    pub is_detection: bool,
    /// Build the model for a given platform ("aiSage" shrinks SSD inputs to
    /// 300² per §4.2; detection inputs are 512² elsewhere; classification is
    /// 224²).
    pub build: fn(on_aisage: bool) -> Graph,
}

/// Image-classification models (Tables 1–3 upper half, Table 5).
pub fn classification_zoo() -> Vec<ModelEntry> {
    vec![
        ModelEntry {
            name: "ResNet50_v1",
            is_detection: false,
            build: |_| resnet50(1, 224, 1000),
        },
        ModelEntry {
            name: "MobileNet1.0",
            is_detection: false,
            build: |_| mobilenet(1, 224, 1000),
        },
        ModelEntry {
            name: "SqueezeNet1.0",
            is_detection: false,
            build: |_| squeezenet(1, 224, 1000),
        },
    ]
}

/// Object-detection models (Tables 1–4).
pub fn detection_zoo() -> Vec<ModelEntry> {
    vec![
        ModelEntry {
            name: "SSD_MobileNet1.0",
            is_detection: true,
            build: |aisage| ssd_mobilenet(if aisage { 300 } else { 512 }, 20),
        },
        ModelEntry {
            name: "SSD_ResNet50",
            is_detection: true,
            build: |aisage| ssd_resnet50(if aisage { 300 } else { 512 }, 20),
        },
        ModelEntry {
            name: "Yolov3",
            is_detection: true,
            // GluonCV yolo3_darknet53 default is 416; aiSage shrinks to 320
            // (inputs must be divisible by 32)
            build: |aisage| yolov3(if aisage { 320 } else { 416 }, 80),
        },
    ]
}

/// All six models, table order.
pub fn full_zoo() -> Vec<ModelEntry> {
    let mut v = classification_zoo();
    v.extend(detection_zoo());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_matches_table_rows() {
        let names: Vec<&str> = full_zoo().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "ResNet50_v1",
                "MobileNet1.0",
                "SqueezeNet1.0",
                "SSD_MobileNet1.0",
                "SSD_ResNet50",
                "Yolov3"
            ]
        );
    }

    #[test]
    fn all_models_build_and_infer_shapes() {
        for e in full_zoo() {
            for aisage in [false, true] {
                // `finish` asserts, in debug builds such as this test's, that
                // the shapes the builder tracked equal a fresh `infer_shapes()`
                let g = (e.build)(aisage);
                let shapes = g.infer_shapes();
                assert!(!shapes.is_empty(), "{}", e.name);
                let mut half = shapes[..shapes.len() / 2].to_vec();
                g.extend_shapes(&mut half);
                assert_eq!(half, shapes, "{}: extending a prefix", e.name);
                assert!(g.conv_count() > 20, "{} is a real CNN", e.name);
            }
        }
    }

    #[test]
    fn detection_flag_matches_vision_ops() {
        for e in full_zoo() {
            let g = (e.build)(false);
            let has_vision = g.nodes.iter().any(|n| n.op.is_vision_control());
            assert_eq!(has_vision, e.is_detection, "{}", e.name);
        }
    }
}
