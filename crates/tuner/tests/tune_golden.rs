//! Same schedules, bit for bit: `tune_graph` on MobileNet1.0 and
//! SqueezeNet1.0 for the three GPUs at 32 trials per workload must find the
//! databases, graph-tuner candidates and per-trial search histories whose
//! digests are in `tests/golden/tune.digest`, captured with the sort-per-node
//! GBT builder and the re-featurizing search loop that the level-wise fit
//! replaced.
//!
//! An intended change of the schedules is re-captured by pasting the `left`
//! side of the failed assertion over the golden.

use unigpu_device::{DeviceSpec, Platform};
use unigpu_ops::conv::ConfigSpace;
use unigpu_telemetry::hash::splitmix64;
use unigpu_tuner::pipeline::conv_workloads;
use unigpu_tuner::{
    tune_graph, tune_one, ModelBasedTuner, SimMeasurer, TuneJob, TuneOutcome, Tuner, TuningBudget,
};

/// SplitMix64 chained over the bytes, eight at a time, seeded with the length.
fn digest(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(splitmix64(bytes.len() as u64), |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        splitmix64(h ^ u64::from_le_bytes(word))
    })
}

/// The pipeline's job list: one job per distinct workload, in graph order.
fn jobs(model: &unigpu_graph::Graph) -> Vec<TuneJob> {
    let mut distinct: Vec<unigpu_ops::ConvWorkload> = Vec::new();
    for w in conv_workloads(model) {
        if !distinct.contains(&w) {
            distinct.push(w);
        }
    }
    distinct.into_iter().enumerate().map(|(index, workload)| TuneJob { index, workload }).collect()
}

/// Every job's per-trial `(config index, cost bits)` sequence, searched with
/// the seeds `tune_one` derives from the job index.
fn histories(jobs: &[TuneJob], spec: &DeviceSpec, budget: &TuningBudget) -> Vec<u8> {
    let mut bytes = Vec::new();
    for job in jobs {
        let i = job.index as u64;
        let space = ConfigSpace::build(&job.workload, spec);
        let mut measurer = SimMeasurer::new(spec.clone(), budget.noise, budget.seed ^ i);
        let result = ModelBasedTuner::new(budget.seed.wrapping_add(i)).tune(
            &job.workload,
            &space,
            &mut measurer,
            budget.trials_per_workload,
        );
        for (config, cost) in result.history {
            bytes.extend((config as u64).to_le_bytes());
            bytes.extend(cost.to_bits().to_le_bytes());
        }
    }
    bytes
}

#[test]
fn tuned_schedules_match_the_golden() {
    let budget = TuningBudget { trials_per_workload: 32, ..Default::default() };
    let models = [
        ("MobileNet1.0", unigpu_models::mobilenet(1, 224, 1000)),
        ("SqueezeNet1.0", unigpu_models::squeezenet(1, 224, 1000)),
    ];
    let mut actual = String::new();
    for (name, model) in &models {
        let jobs = jobs(model);
        for platform in Platform::all() {
            let spec = &platform.gpu;
            let db = tune_graph(model, spec, &budget);
            let outcomes: Vec<TuneOutcome> =
                jobs.iter().map(|j| tune_one(j, spec, &budget)).collect();
            let mut candidates = String::new();
            for outcome in &outcomes {
                for c in &outcome.candidates {
                    candidates += &format!("{:?} {:016x}\n", c.config, c.kernel_ms.to_bits());
                }
            }
            actual += &format!(
                "{name} {}: db {:016x} candidates {:016x} history {:016x}\n",
                platform.name,
                digest(db.to_json_lines().as_bytes()),
                digest(candidates.as_bytes()),
                digest(&histories(&jobs, spec, &budget))
            );
        }
    }
    assert_eq!(actual, include_str!("golden/tune.digest"));
}
