//! Graph analysis utilities: operator statistics and Graphviz export for
//! debugging model definitions.

use crate::graph::Graph;
use crate::node::OpKind;
use std::collections::HashMap;

/// Per-operator-kind counts — the "model coverage" summaries in reports.
pub fn op_histogram(g: &Graph) -> HashMap<&'static str, usize> {
    let mut h = HashMap::new();
    for n in &g.nodes {
        *h.entry(n.op.name()).or_insert(0) += 1;
    }
    h
}

/// Total parameter count (elements of all constants).
pub fn parameter_count(g: &Graph) -> usize {
    g.nodes
        .iter()
        .map(|n| match &n.op {
            OpKind::Constant(c) => c.shape().numel(),
            _ => 0,
        })
        .sum()
}

/// Render the graph in Graphviz dot format (constants elided for legibility).
pub fn to_dot(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", g.name);
    let _ = writeln!(s, "  rankdir=TB; node [shape=box, fontsize=10];");
    for (id, n) in g.nodes.iter().enumerate() {
        if matches!(n.op, OpKind::Constant(_)) {
            continue;
        }
        let color = match &n.op {
            OpKind::Conv2d { .. } => "lightblue",
            op if op.is_vision_control() => "salmon",
            OpKind::DeviceCopy => "gold",
            _ => "white",
        };
        let _ = writeln!(
            s,
            "  n{id} [label=\"{}\\n{}\", style=filled, fillcolor={color}];",
            n.name,
            n.op.name()
        );
        for &i in &n.inputs {
            if !matches!(g.nodes[i].op, OpKind::Constant(_)) {
                let _ = writeln!(s, "  n{i} -> n{id};");
            }
        }
    }
    for &o in &g.outputs {
        let _ = writeln!(s, "  n{o} [peripheries=2];");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Activation;
    use unigpu_ops::ConvWorkload;
    use unigpu_tensor::{Shape, Tensor};

    fn graph_with_dead_branch() -> Graph {
        let w = ConvWorkload::square(1, 3, 4, 6, 3, 1, 1);
        let mut g = Graph::new("dead");
        let x = g.add(OpKind::Input { shape: Shape::from(w.input_shape()) }, vec![], "x");
        let k = g.add(OpKind::constant(Tensor::zeros(w.weight_shape())), vec![], "k");
        let live = g.add(
            OpKind::Conv2d { w, bias: false, act: Activation::Relu },
            vec![x, k],
            "live",
        );
        // dead: an activation nobody consumes + an orphan constant
        g.add(OpKind::Act(Activation::Sigmoid), vec![live], "dead_act");
        g.add(OpKind::constant(Tensor::zeros([128])), vec![], "orphan");
        g.mark_output(live);
        g
    }

    #[test]
    fn histogram_counts_ops() {
        let g = graph_with_dead_branch();
        let h = op_histogram(&g);
        assert_eq!(h["conv2d"], 1);
        assert_eq!(h["const"], 2);
        assert_eq!(h["activation"], 1);
    }

    #[test]
    fn parameter_count_sums_constants() {
        let g = graph_with_dead_branch();
        assert_eq!(parameter_count(&g), 4 * 3 * 3 * 3 + 128);
    }

    #[test]
    fn dot_output_is_wellformed() {
        let g = graph_with_dead_branch();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("lightblue")); // conv colored
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
        assert!(!dot.contains("orphan"), "constants are elided");
    }
}
