//! Static memory planning: where every value of one run of a graph lives.
//!
//! `Arena::new` makes one pass over the topological order, with the shapes
//! its caller inferred (a [`Plan`](crate::Plan)'s, or those of one
//! [`Executor::run`](crate::Executor::run)) and `Graph::consumers`, and
//! gives every node a `Loc`:
//!
//! * every operator writes its value into a slot of one `f32` arena, live
//!   from the step that first writes it to the last step that reads it (a
//!   graph output stays live to the end);
//! * `DeviceCopy` (integrated GPUs share DRAM with the CPU) and `Flatten`
//!   (a reshape) name their producer's slot and cost nothing;
//! * a concat along axis 1 at batch 1 (`Concat`, `ConcatFlat`,
//!   `ConcatAnchors`) is one contiguous run per input, so each input that
//!   only the concat reads is computed straight into its range of the
//!   concat's slot: a fire module's `expand1x1` and `expand3x3` write the two
//!   halves of its concat, SSD's priors their runs of the anchor list and
//!   YOLO's upsamples the front of their route concat, which then copy
//!   nothing;
//! * an operator that needs working memory gets a scratch slot, live for its
//!   own step: a convolution that strides or pads for its padded (or
//!   phase-split) input copy, `MultiboxDetection` and `YoloDetect` for their
//!   candidate rows;
//! * graph inputs and constants stay where they are.
//!
//! `YoloDetect` finds as many candidates as its data has: its slot holds
//! shape inference's worst case, one row per anchor-cell, and the
//! `Workspace` keeps the count a run found, by which the executor trims the
//! value when it copies it out.
//!
//! Offsets come from greedy placement: the slots are placed largest size
//! class first and in start order within a class, each at the best-fitting
//! gap among the placed slots whose lifetimes overlap its own.
//! `Arena::liveness_bound` is the lower bound any placement has to meet, the
//! most floats live at one step.

use crate::graph::{Graph, NodeId};
use crate::node::OpKind;
use unigpu_ops::conv::conv2d_scratch_len;
use unigpu_tensor::Shape;

/// Slot sizes and offsets are multiples of this many floats (64 bytes).
const ALIGN: usize = 16;
/// Slots whose sizes differ by less than this many floats (16 KB) are placed
/// as if equal.
const SIZE_CLASS: usize = 4096;

/// Where a node's value lives during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Loc {
    /// The caller's `inputs[k]`.
    Input(usize),
    /// The value of the `Constant` node with this id.
    Const(NodeId),
    /// `arena[offset..offset + numel]`.
    Arena(usize),
}

/// What a node's step does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Step {
    /// Nothing: an input, a constant or an alias.
    Free,
    /// Write the value into its arena slot.
    Write,
}

/// The concats along axis 1, which are one contiguous run per input at
/// batch 1.
pub(crate) fn is_concat(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Concat | OpKind::ConcatFlat | OpKind::ConcatAnchors
    )
}

/// Floats of working memory `op` needs during its own step, beside its
/// output of `shape`.
fn scratch_len(op: &OpKind, shape: &Shape) -> usize {
    match op {
        // The worst case: weights that turn out finite or not.
        OpKind::Conv2d { w, .. } => conv2d_scratch_len(w, true).max(conv2d_scratch_len(w, false)),
        // One candidate row per output row.
        OpKind::MultiboxDetection { .. } | OpKind::YoloDetect { .. } => shape.numel(),
        _ => 0,
    }
}

/// One arena slot: `len` floats live over steps `first..=last`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    len: usize,
    first: usize,
    last: usize,
}

impl Slot {
    fn overlaps_in_time(&self, other: &Slot) -> bool {
        self.first <= other.last && other.first <= self.last
    }
}

/// The arena layout of one graph: a location per node, the arena size, and
/// what each step writes. Placed once per plan; `Executor::run` places one
/// per call.
#[derive(Debug)]
pub(crate) struct Arena {
    /// How many `Input` nodes the graph has.
    pub(crate) inputs: usize,
    pub(crate) locs: Vec<Loc>,
    pub(crate) steps: Vec<Step>,
    /// Per node: whether it writes straight into its consumer concat's slot,
    /// so that the concat skips it.
    pub(crate) in_place: Vec<bool>,
    /// Per step: the arena offset and length of its scratch, if it has one.
    pub(crate) scratch: Vec<Option<(usize, usize)>>,
    /// Floats in the arena.
    pub(crate) arena_len: usize,
    /// The arena slots and their offsets.
    slots: Vec<(Slot, usize)>,
}

/// The buffers one run computes into: the arena, and per node the rows a
/// `YoloDetect` found. Made by `Arena::workspace` and reusable across runs
/// of the graph the arena was placed for. No run reads a value an earlier
/// run left behind: every step overwrites its whole slot (and its count)
/// before any step reads it.
#[derive(Debug)]
pub(crate) struct Workspace {
    pub(crate) arena: Vec<f32>,
    pub(crate) rows: Vec<usize>,
}

impl Arena {
    /// Places the values of `graph`, whose shapes are `shapes`.
    pub(crate) fn new(graph: &Graph, shapes: &[Shape]) -> Arena {
        let consumers = graph.consumers();
        let nodes = &graph.nodes;
        let end = nodes.len();
        let is_output = |id: NodeId| graph.outputs.contains(&id);

        // Steps, and the node whose storage each node's value is.
        let mut steps = Vec::with_capacity(end);
        let mut root: Vec<NodeId> = Vec::with_capacity(end);
        for (id, node) in nodes.iter().enumerate() {
            let (step, r) = match &node.op {
                OpKind::DeviceCopy | OpKind::Flatten => (Step::Free, root[node.inputs[0]]),
                OpKind::Input { .. } | OpKind::Constant(_) => (Step::Free, id),
                _ => (Step::Write, id),
            };
            steps.push(step);
            root.push(r);
        }

        // The inputs each batch-1 concat hosts in its own slot, at their
        // float offsets.
        let mut host: Vec<Option<(NodeId, usize)>> = vec![None; end];
        for (id, node) in nodes.iter().enumerate() {
            if !is_concat(&node.op) || shapes[id].dim(0) != 1 {
                continue;
            }
            let mut offset = 0;
            for &i in &node.inputs {
                let hosted = steps[i] == Step::Write
                    && !is_concat(&nodes[i].op)
                    && consumers[i].len() == 1
                    && !is_output(i);
                if hosted {
                    host[i] = Some((id, offset));
                }
                offset += shapes[i].numel();
            }
        }

        // The last step reading each storage node.
        let mut last_read: Vec<usize> = (0..end).collect();
        for (id, node) in nodes.iter().enumerate() {
            for &i in &node.inputs {
                last_read[root[i]] = last_read[root[i]].max(id);
            }
        }
        for &o in &graph.outputs {
            last_read[root[o]] = end;
        }

        // One slot per written value not hosted by a concat, then one per
        // scratch; a concat's slot goes live with its first hosted input.
        let mut slots: Vec<Slot> = Vec::new();
        let mut slot_of = vec![usize::MAX; end];
        for id in 0..end {
            if steps[id] == Step::Write && host[id].is_none() {
                slot_of[id] = slots.len();
                let len = shapes[id].numel().next_multiple_of(ALIGN);
                slots.push(Slot {
                    len,
                    first: id,
                    last: last_read[id],
                });
            }
        }
        for (id, h) in host.iter().enumerate() {
            if let Some((c, _)) = *h {
                let slot = &mut slots[slot_of[c]];
                slot.first = slot.first.min(id);
            }
        }
        let mut scratch_slot = vec![None; end];
        for (id, node) in nodes.iter().enumerate() {
            let len = scratch_len(&node.op, &shapes[id]);
            if steps[id] == Step::Write && len > 0 {
                scratch_slot[id] = Some(slots.len());
                slots.push(Slot {
                    len: len.next_multiple_of(ALIGN),
                    first: id,
                    last: id,
                });
            }
        }

        let offsets = place_slots(&slots);
        let arena_len = slots
            .iter()
            .zip(&offsets)
            .map(|(s, o)| s.len + o)
            .max()
            .unwrap_or(0);

        let input_ids = graph.input_ids();
        let mut locs: Vec<Loc> = Vec::with_capacity(end);
        for (id, node) in nodes.iter().enumerate() {
            let loc = match &node.op {
                _ if root[id] != id => locs[root[id]],
                OpKind::Input { .. } => {
                    Loc::Input(input_ids.iter().position(|&i| i == id).expect("an input"))
                }
                OpKind::Constant(_) => Loc::Const(id),
                _ => match host[id] {
                    Some((c, at)) => Loc::Arena(offsets[slot_of[c]] + at),
                    None => Loc::Arena(offsets[slot_of[id]]),
                },
            };
            locs.push(loc);
        }

        Arena {
            inputs: input_ids.len(),
            locs,
            steps,
            in_place: host.iter().map(Option::is_some).collect(),
            scratch: scratch_slot
                .iter()
                .map(|s| s.map(|s: usize| (offsets[s], slots[s].len)))
                .collect(),
            arena_len,
            slots: slots.into_iter().zip(offsets).collect(),
        }
    }

    /// The most arena floats live at one step: no placement of these slots
    /// fits in less.
    pub(crate) fn liveness_bound(&self) -> usize {
        let live_at = |t: usize| -> usize {
            let live = self
                .slots
                .iter()
                .filter(|(s, _)| s.first <= t && t <= s.last);
            live.map(|(s, _)| s.len).sum()
        };
        (0..=self.locs.len()).map(live_at).max().unwrap_or(0)
    }

    /// A fresh workspace for runs in this arena.
    pub(crate) fn workspace(&self) -> Workspace {
        Workspace {
            arena: vec![0.0; self.arena_len],
            rows: vec![0; self.locs.len()],
        }
    }
}

/// Greedy placement: slots go largest size class first and, within a class,
/// in order of their first step; each goes to the smallest gap that fits it
/// among the placed slots whose lifetimes overlap its own, or above them
/// all. Largest first keeps big slots from being split by small ones; start
/// order within a class packs equal slots like interval colouring, which a
/// strict size order breaks when a scratch a few floats larger than many
/// values goes first (it cost ResNet50 a third over its liveness bound).
fn place_slots(slots: &[Slot]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(slots[i].len / SIZE_CLASS),
            slots[i].first,
            i,
        )
    });
    let mut offsets = vec![0; slots.len()];
    for (k, &i) in order.iter().enumerate() {
        let s = slots[i];
        let mut busy: Vec<(usize, usize)> = order[..k]
            .iter()
            .filter(|&&j| slots[j].overlaps_in_time(&s))
            .map(|&j| (offsets[j], offsets[j] + slots[j].len))
            .collect();
        busy.sort_unstable();
        let (mut best, mut top) = (None::<(usize, usize)>, 0);
        for (lo, hi) in busy {
            if lo >= top + s.len && best.is_none_or(|(gap, _)| lo - top < gap) {
                best = Some((lo - top, top));
            }
            top = top.max(hi);
        }
        offsets[i] = best.map_or(top, |(_, at)| at);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Activation;
    use crate::exec::run_steps;
    use unigpu_ops::conv::conv2d_ref;
    use unigpu_ops::vision::MultiboxConfig;
    use unigpu_ops::{nn, vision};
    use unigpu_ops::ConvWorkload;
    use unigpu_telemetry::hash::SplitMix64;
    use unigpu_tensor::init::random_uniform;
    use unigpu_tensor::Tensor;

    /// `g`'s shapes and its arena.
    fn placed(g: &Graph) -> (Vec<Shape>, Arena) {
        let shapes = g.infer_shapes();
        let arena = Arena::new(g, &shapes);
        (shapes, arena)
    }

    fn shape(c: usize, hw: usize) -> Shape {
        Shape::from([1, c, hw, hw])
    }

    /// A random DAG over `[1, C, 6, 6]` values: convs, adds, activations,
    /// batch norms over constant parameters, concats (some of an upsampled
    /// pool), pools, copies and flattens, with some values read by many
    /// nodes and some marked as outputs.
    fn random_dag(seed: u64) -> Graph {
        let mut rng = SplitMix64::new(seed);
        let mut g = Graph::new(format!("dag{seed}"));
        let mut values: Vec<(NodeId, usize)> = Vec::new(); // (id, channels) of 6x6 values
        let x = g.add(OpKind::Input { shape: shape(2, 6) }, vec![], "x");
        values.push((x, 2));
        let nodes = 4 + rng.below(20);
        for n in 0..nodes {
            let (a, ca) = values[rng.below(values.len())];
            let (b, cb) = values[rng.below(values.len())];
            let name = format!("n{n}");
            let (id, c) = match rng.below(9) {
                0 | 1 => {
                    let oc = 1 + rng.below(4);
                    let (k, p) = if rng.chance(0.5) { (1, 0) } else { (3, 1) };
                    let w = ConvWorkload::square(1, ca, oc, 6, k, 1, p);
                    let wt = g.add(
                        OpKind::constant(random_uniform(w.weight_shape(), seed + n as u64)),
                        vec![],
                        "w",
                    );
                    (
                        g.add(
                            OpKind::Conv2d {
                                w,
                                bias: false,
                                act: Activation::Relu,
                            },
                            vec![a, wt],
                            name,
                        ),
                        oc,
                    )
                }
                2 if ca == cb => (g.add(OpKind::Add, vec![a, b], name), ca),
                3 => (g.add(OpKind::Concat, vec![a, b], name), ca + cb),
                4 => (g.add(OpKind::Act(Activation::Sigmoid), vec![a], name), ca),
                5 => (g.add(OpKind::DeviceCopy, vec![a], name), ca),
                6 => {
                    let mut params = vec![a];
                    for (k, lo) in [0.5, -0.5, -0.5, 0.1].into_iter().enumerate() {
                        let mut t = random_uniform([ca], seed * 4 + k as u64);
                        t.map_inplace(|v| v + lo);
                        params.push(g.add(OpKind::constant(t), vec![], "bn"));
                    }
                    (g.add(OpKind::BatchNorm { eps: 1e-3 }, params, name), ca)
                }
                7 => {
                    let pool = g.add(OpKind::MaxPool { k: 2, s: 2, p: 0 }, vec![a], "pool");
                    let up = g.add(OpKind::UpsampleNearest { scale: 2 }, vec![pool], "up");
                    (g.add(OpKind::Concat, vec![up, b], name), ca + cb)
                }
                _ => (
                    g.add(OpKind::MaxPool { k: 3, s: 1, p: 1 }, vec![a], name),
                    ca,
                ),
            };
            values.push((id, c));
            if rng.chance(0.15) {
                g.mark_output(id);
            }
        }
        let (last, _) = *values.last().unwrap();
        let gap = g.add(OpKind::GlobalAvgPool, vec![last], "gap");
        let flat = g.add(OpKind::Flatten, vec![gap], "flat");
        let sm = g.add(OpKind::Softmax, vec![flat], "softmax");
        g.mark_output(sm);
        g
    }

    #[test]
    fn no_two_slots_live_at_once_overlap_in_the_arena() {
        for seed in 0..300 {
            let (_, arena) = placed(&random_dag(seed));
            for (i, &(a, at)) in arena.slots.iter().enumerate() {
                assert!(
                    at % ALIGN == 0 && at + a.len <= arena.arena_len,
                    "seed {seed}: slot {i} placed out of the arena"
                );
                for &(b, bt) in &arena.slots[i + 1..] {
                    if a.overlaps_in_time(&b) {
                        assert!(
                            at + a.len <= bt || bt + b.len <= at,
                            "seed {seed}: {a:?} at {at} and {b:?} at {bt}"
                        );
                    }
                }
            }
            assert!(arena.liveness_bound() <= arena.arena_len, "seed {seed}");
        }
    }

    /// Every node of `g` through its kernel into a fresh tensor, each value
    /// kept to the end: what the planned run must compute.
    fn per_node_oracle(g: &Graph, input: &Tensor) -> Vec<Tensor> {
        let shapes = g.infer_shapes();
        let mut values: Vec<Tensor> = Vec::new();
        for (id, node) in g.nodes.iter().enumerate() {
            let get = |i: usize| &values[node.inputs[i]];
            let data = |i: usize| get(i).as_f32();
            let mut t = Tensor::zeros(shapes[id].clone());
            match &node.op {
                OpKind::Input { .. } => t = input.clone(),
                OpKind::Constant(c) => t = c.value().clone(),
                OpKind::Conv2d { w, .. } => t = nn::relu(&conv2d_ref(get(0), get(1), w)),
                OpKind::Add => t = nn::add(get(0), get(1)),
                OpKind::Concat => {
                    let total = t.numel();
                    nn::concat_channels_into(data(0), 1, 0, total, t.as_f32_mut());
                    nn::concat_channels_into(data(1), 1, get(0).numel(), total, t.as_f32_mut());
                }
                OpKind::Act(_) => t = nn::sigmoid(get(0)),
                OpKind::DeviceCopy => t = get(0).clone(),
                OpKind::BatchNorm { eps } => {
                    let params = [data(1), data(2), data(3), data(4)];
                    nn::batch_norm_into(data(0), 36, params, *eps, t.as_f32_mut())
                }
                OpKind::MaxPool { k, s, p } => {
                    nn::max_pool2d_into(data(0), get(0).shape().nchw(), *k, *s, *p, t.as_f32_mut())
                }
                OpKind::UpsampleNearest { scale } => {
                    nn::upsample_nearest_into(data(0), get(0).shape().nchw(), *scale, t.as_f32_mut())
                }
                OpKind::GlobalAvgPool => t = nn::global_avg_pool(get(0)),
                OpKind::Flatten => t = nn::flatten(get(0)),
                OpKind::Softmax => t = nn::softmax(get(0)),
                op => unreachable!("{}", op.name()),
            }
            values.push(t);
        }
        g.outputs.iter().map(|&o| values[o].clone()).collect()
    }

    fn bits(ts: &[Tensor]) -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.as_f32().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn planned_runs_equal_the_per_node_kernels_and_ignore_stale_workspaces() {
        for seed in 0..200 {
            let g = random_dag(seed);
            let mut input = random_uniform([1, 2, 6, 6], seed);
            input.map_inplace(|v| v - 0.5);
            let want = per_node_oracle(&g, &input);
            let (shapes, arena) = placed(&g);
            let mut ws = arena.workspace();
            let first = run_steps(&g, &shapes, &arena, &mut ws, std::slice::from_ref(&input), None);
            assert_eq!(bits(&first), bits(&want), "seed {seed}");
            ws.arena.fill(f32::NAN);
            let again = run_steps(&g, &shapes, &arena, &mut ws, std::slice::from_ref(&input), None);
            assert_eq!(
                bits(&again),
                bits(&want),
                "seed {seed}, NaN-filled workspace"
            );
        }
    }

    #[test]
    fn fire_module_expands_write_their_concat_and_copies_alias() {
        let mut g = Graph::new("fire");
        let x = g.add(OpKind::Input { shape: shape(4, 6) }, vec![], "x");
        let conv = |g: &mut Graph, input, ic, oc, k, p, name: &str| {
            let w = ConvWorkload::square(1, ic, oc, 6, k, 1, p);
            let wt = g.add(
                OpKind::constant(random_uniform(w.weight_shape(), 1)),
                vec![],
                "w",
            );
            g.add(
                OpKind::Conv2d {
                    w,
                    bias: false,
                    act: Activation::Relu,
                },
                vec![input, wt],
                name,
            )
        };
        let s = conv(&mut g, x, 4, 2, 1, 0, "squeeze");
        let e1 = conv(&mut g, s, 2, 3, 1, 0, "expand1x1");
        let e3 = conv(&mut g, s, 2, 5, 3, 1, "expand3x3");
        let cat = g.add(OpKind::Concat, vec![e1, e3], "concat");
        let copy = g.add(OpKind::DeviceCopy, vec![cat], "copy");
        let flat = g.add(OpKind::Flatten, vec![copy], "flat");
        g.mark_output(flat);
        let (_, arena) = placed(&g);
        let Loc::Arena(at) = arena.locs[cat] else {
            panic!("the concat lives in the arena")
        };
        assert_eq!(arena.locs[e1], Loc::Arena(at));
        assert_eq!(arena.locs[e3], Loc::Arena(at + 3 * 36));
        assert!(arena.in_place[e1] && arena.in_place[e3] && !arena.in_place[s]);
        assert_eq!(
            (arena.locs[copy], arena.locs[flat]),
            (Loc::Arena(at), Loc::Arena(at))
        );
        assert_eq!(arena.steps[copy], Step::Free);
        assert!(
            arena.scratch[e3].is_some() && arena.scratch[e1].is_none(),
            "only the padded conv copies its input"
        );
        // squeeze, the concat (from expand1x1 on), and expand3x3's scratch
        assert_eq!(arena.slots.len(), 3);
    }

    #[test]
    fn upsample_lives_in_the_arena_and_writes_its_concat() {
        let mut g = Graph::new("up");
        let x = g.add(OpKind::Input { shape: shape(2, 4) }, vec![], "x");
        let y = g.add(OpKind::Input { shape: shape(3, 8) }, vec![], "y");
        let a = g.add(OpKind::Act(Activation::Relu), vec![x], "relu");
        let copy = g.add(OpKind::DeviceCopy, vec![a], "copy");
        let up = g.add(OpKind::UpsampleNearest { scale: 2 }, vec![copy], "up");
        let b = g.add(OpKind::Act(Activation::Relu), vec![y], "relu2");
        let cat = g.add(OpKind::Concat, vec![up, b], "cat");
        g.mark_output(cat);
        let (_, arena) = placed(&g);
        let Loc::Arena(at) = arena.locs[cat] else {
            panic!("the concat lives in the arena")
        };
        assert!(matches!(arena.locs[a], Loc::Arena(_)), "upsample's input");
        assert_eq!(arena.locs[copy], arena.locs[a]);
        assert_eq!(arena.locs[up], Loc::Arena(at), "upsample writes the concat's front");
        assert_eq!(arena.locs[b], Loc::Arena(at + 2 * 64));
        assert!(arena.in_place[up] && arena.in_place[b], "the concat hosts both");
        assert_eq!((arena.locs[x], arena.locs[y]), (Loc::Input(0), Loc::Input(1)));
        // relu, then the concat from upsample on
        assert_eq!(arena.slots.len(), 2);
    }

    /// An SSD head at batch 1: two priors into their anchor concat, class
    /// probabilities from raw scores, and the detection over both. The
    /// probabilities are an output too.
    fn ssd_head() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new("ssd-head");
        let f1 = g.add(OpKind::Input { shape: shape(4, 3) }, vec![], "f1");
        let f2 = g.add(OpKind::Input { shape: shape(4, 2) }, vec![], "f2");
        let (sizes, ratios) = (vec![0.2, 0.4], vec![1.0, 2.0, 0.5]);
        let prior = |g: &mut Graph, f, name: &str| {
            let op = OpKind::MultiboxPrior { sizes: sizes.clone(), ratios: ratios.clone() };
            g.add(op, vec![f], name)
        };
        let p1 = prior(&mut g, f1, "p1");
        let p2 = prior(&mut g, f2, "p2");
        let anchors = g.add(OpKind::ConcatAnchors, vec![p1, p2], "anchors");
        let scores = g.add(OpKind::Input { shape: Shape::from([1, 52 * 3]) }, vec![], "scores");
        let probs = g.add(OpKind::ClsProbs { classes: 2 }, vec![scores], "probs");
        let loc = g.add(OpKind::Input { shape: Shape::from([1, 52 * 4]) }, vec![], "loc");
        let loc_gpu = g.add(OpKind::DeviceCopy, vec![loc], "loc.gpu");
        let det = g.add(
            OpKind::MultiboxDetection { cfg: MultiboxConfig::default() },
            vec![probs, loc_gpu, anchors],
            "det",
        );
        g.mark_output(det);
        g.mark_output(probs);
        (g, [p1, p2, det])
    }

    #[test]
    fn an_ssd_head_plans_its_priors_into_their_concat_and_reruns_bit_for_bit() {
        let (g, [p1, p2, det]) = ssd_head();
        let (shapes, arena) = placed(&g);
        assert!(arena.in_place[p1] && arena.in_place[p2], "the priors write the anchor list");
        assert!(
            arena.scratch[det].is_some_and(|(_, len)| len >= 52 * 6),
            "the detection decodes into its scratch"
        );
        let signed = |shape: [usize; 2], seed| {
            let mut t = random_uniform(shape, seed);
            t.map_inplace(|v| 4.0 * v - 2.0);
            t
        };
        let inputs = |seed| {
            [
                random_uniform([1, 4, 3, 3], seed),
                random_uniform([1, 4, 2, 2], seed + 1),
                signed([1, 52 * 3], seed + 2),
                signed([1, 52 * 4], seed + 3),
            ]
        };
        let mut inputs = [inputs(5), inputs(1)];
        // every third anchor is sure background in the run that counts
        for a in (0..52).step_by(3) {
            inputs[1][2].as_f32_mut()[a * 3] = 20.0;
        }
        let mut ws = arena.workspace();
        // a run where those anchors are candidates leaves its rows behind
        run_steps(&g, &shapes, &arena, &mut ws, &inputs[0], None);
        let inputs = &inputs[1];
        let first = run_steps(&g, &shapes, &arena, &mut ws, inputs, None);
        let kept = first[0].as_f32().chunks(6).filter(|r| r[0] >= 0.0).count();
        assert!((1..35).contains(&kept), "{kept} detections");
        ws.arena.fill(f32::NAN);
        let again = run_steps(&g, &shapes, &arena, &mut ws, inputs, None);
        assert_eq!(bits(&again), bits(&first), "NaN-filled workspace");

        // the same kernels on fresh buffers
        let mut anchors = vec![0.0; 52 * 4];
        let (a1, a2) = anchors.split_at_mut(36 * 4);
        vision::multibox_prior_into(3, 3, &[0.2, 0.4], &[1.0, 2.0, 0.5], a1);
        vision::multibox_prior_into(2, 2, &[0.2, 0.4], &[1.0, 2.0, 0.5], a2);
        let mut want = Tensor::zeros([1, 52, 6]);
        let mut scratch = vec![0.0; 52 * 6];
        let cfg = MultiboxConfig::default();
        let (p, l) = (first[1].as_f32(), inputs[3].as_f32());
        vision::multibox_detection(p, l, &anchors, &cfg, &mut scratch, want.as_f32_mut());
        assert_eq!(bits(&first[..1]), bits(&[want]));
    }
}
