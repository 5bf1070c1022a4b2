//! Element data types supported by the stack.
//!
//! The paper's inference path is fp32 end-to-end (quantization is explicitly
//! listed as out of scope / future work in §5), so `F32` is the only type.

use serde::{Deserialize, Serialize};

/// Scalar element type of a [`crate::Tensor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE-754 float — the inference compute type.
    F32,
}

impl DType {
    /// Short lowercase name matching TVM conventions (`float32`, ...).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "float32",
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_display() {
        assert_eq!(format!("{}", DType::F32), DType::F32.name());
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", DType::F32), "F32");
    }
}
