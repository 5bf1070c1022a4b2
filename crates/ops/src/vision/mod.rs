//! Vision-specific operators (§3.1) — the control-flow-heavy operators that
//! keep object-detection models off integrated GPUs, each in an *optimized*
//! unified-GPU realization and (where Table 4 ablates it) a *naive* one.

pub mod multibox;
pub mod nms;
pub mod roi_align;
pub mod scan;
pub mod sort;
pub mod yolo;

pub use multibox::{multibox_detection, multibox_prior_into, MultiboxConfig};
pub use nms::{box_nms, iou, NmsConfig};
pub use roi_align::roi_align;
pub use scan::prefix_sum;
pub use sort::segmented_argsort;
pub use yolo::{yolo_detect, YoloScale};
