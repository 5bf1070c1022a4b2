//! # unigpu-models
//!
//! The evaluation model zoo (§4.1): the five model families of the paper's
//! tables, built as `unigpu-graph` computational graphs with deterministic
//! seeded weights.
//!
//! * Image classification: ResNet50_v1, MobileNet1.0, SqueezeNet1.0
//! * Object detection: SSD_MobileNet1.0, SSD_ResNet50, YOLOv3 (Darknet-53)
//!
//! The paper pulls pre-trained weights from the GluonCV model zoo; latency
//! depends only on shapes, so weights here are Xavier-initialized with fixed
//! seeds (see DESIGN.md's substitution table). Architectures follow the
//! GluonCV definitions layer-for-layer.

pub mod builder;
pub mod mobilenet;
pub mod resnet;
pub mod squeezenet;
pub mod ssd;
pub mod yolo;
pub mod zoo;

pub use builder::ModelBuilder;
pub use mobilenet::mobilenet;
pub use resnet::resnet50;
pub use squeezenet::squeezenet;
pub use ssd::{ssd_mobilenet, ssd_resnet50};
pub use yolo::yolov3;
pub use zoo::{classification_zoo, detection_zoo, full_zoo, ModelEntry};
