//! The farm-side [`Dispatcher`]: `tune_graph_with` plugs this in to run
//! tensor-level search on a remote tracker's worker pool instead of
//! in-process. Submit the whole batch, poll until done, return the outcomes
//! in job order. Because every job is self-seeded by its index, the farm's
//! databases are bit-identical to the local dispatcher's at zero noise.

use crate::proto::{read_frame, write_frame, Frame};
use std::net::TcpStream;
use std::time::Duration;
use unigpu_device::DeviceSpec;
use unigpu_telemetry::{tel_debug, tel_info, TraceContext};
use unigpu_tuner::{DispatchError, Dispatcher, TuneJob, TuneOutcome, TuningBudget};

/// How long the client waits between batch-status polls.
const POLL: Duration = Duration::from_millis(50);

/// Client half of the farm protocol; implements [`Dispatcher`].
#[derive(Debug, Clone)]
pub struct FarmClient {
    addr: String,
    trace: Option<TraceContext>,
}

impl FarmClient {
    pub fn new(addr: impl Into<String>) -> Self {
        FarmClient { addr: addr.into(), trace: None }
    }

    /// Attach the originating operation's trace context: every submit
    /// carries it, and the tracker's lease spans become children of it.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Dispatcher for FarmClient {
    fn name(&self) -> String {
        format!("farm({})", self.addr)
    }

    fn dispatch(
        &self,
        jobs: &[TuneJob],
        spec: &DeviceSpec,
        budget: &TuningBudget,
    ) -> Result<Vec<TuneOutcome>, DispatchError> {
        let mut stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        let submit = Frame::Submit {
            device: spec.name.clone(),
            budget: *budget,
            jobs: jobs.to_vec(),
            trace: self.trace.map(|t| t.encode()),
        };
        write_frame(&mut stream, &submit)?;
        let batch_id = match read_frame(&mut stream)? {
            Frame::SubmitAck { batch_id } => batch_id,
            Frame::Error { message } => return Err(DispatchError::Protocol(message)),
            other => {
                return Err(DispatchError::Protocol(format!("unexpected submit reply: {other:?}")))
            }
        };
        tel_info!(
            "farm::client",
            "batch {batch_id}: {} job(s) submitted to {}",
            jobs.len(),
            self.addr
        );
        loop {
            std::thread::sleep(POLL);
            write_frame(&mut stream, &Frame::Poll { batch_id })?;
            match read_frame(&mut stream)? {
                Frame::Status { total, done, failed, outcomes, failures, .. } => {
                    tel_debug!(
                        "farm::client",
                        "batch {batch_id}: {done} done, {failed} failed of {total}"
                    );
                    if done + failed < total {
                        continue;
                    }
                    if failed > 0 {
                        return Err(DispatchError::JobsFailed {
                            failed,
                            first_error: failures
                                .into_iter()
                                .next()
                                .unwrap_or_else(|| "unknown failure".into()),
                        });
                    }
                    let mut outcomes = outcomes;
                    outcomes.sort_by_key(|o| o.index);
                    return Ok(outcomes);
                }
                Frame::Error { message } => return Err(DispatchError::Protocol(message)),
                other => {
                    return Err(DispatchError::Protocol(format!(
                        "unexpected poll reply: {other:?}"
                    )))
                }
            }
        }
    }
}
