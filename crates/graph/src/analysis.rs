//! Graph analysis utilities: dead-node elimination, operator statistics, and
//! Graphviz export for debugging model definitions.

use crate::graph::{Graph, NodeId};
use crate::node::OpKind;
use std::collections::HashMap;

/// Remove nodes that no output transitively depends on (e.g. constants left
/// behind by BN folding, branches dropped during surgery).
pub fn eliminate_dead_nodes(g: &Graph) -> Graph {
    let mut live = vec![false; g.nodes.len()];
    let mut stack: Vec<NodeId> = g.outputs.clone();
    while let Some(id) = stack.pop() {
        if live[id] {
            continue;
        }
        live[id] = true;
        stack.extend(&g.nodes[id].inputs);
    }
    let mut out = Graph::new(g.name.clone());
    let mut map: Vec<Option<NodeId>> = vec![None; g.nodes.len()];
    for (id, n) in g.nodes.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let inputs: Vec<NodeId> = n.inputs.iter().map(|&i| map[i].expect("live input")).collect();
        map[id] = Some(out.add(n.op.clone(), inputs, n.name.clone()));
    }
    for &o in &g.outputs {
        out.mark_output(map[o].expect("output live"));
    }
    out
}

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
            OpKind::Constant(t) => t.numel(),
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
    fn dead_nodes_are_removed() {
        let g = graph_with_dead_branch();
        let clean = eliminate_dead_nodes(&g);
        assert_eq!(clean.nodes.len(), g.nodes.len() - 2);
        assert!(clean.nodes.iter().all(|n| n.name != "dead_act" && n.name != "orphan"));
        // the live path survives with outputs remapped
        assert_eq!(clean.outputs.len(), 1);
        assert_eq!(clean.nodes[clean.outputs[0]].name, "live");
    }

    #[test]
    fn elimination_preserves_execution() {
        use crate::exec::Executor;
        use unigpu_tensor::init::random_uniform;
        let g = graph_with_dead_branch();
        let clean = eliminate_dead_nodes(&g);
        let x = random_uniform([1, 3, 6, 6], 81);
        assert_eq!(Executor.run(&g, &[x.clone()]), Executor.run(&clean, &[x]));
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
