//! Preview reads from the one client thread, a window of them in flight.
//!
//! With one request in flight (`submit_wait`), every request waits for two
//! thread wake-ups. On the virtualised 2-core host the bounds were fixed on,
//! waking an idle core took anywhere from microseconds to far more as the
//! host's other load came and went, and throughput swung by up to 3x between
//! runs minutes apart. Keeping [`WINDOW`] requests in flight keeps the worker
//! busy, and the client polls for the oldest reply instead of sleeping on
//! it, so the reads measure the serving path rather than the host's
//! wake-ups. It is still a closed loop: a new request is sent only when the
//! oldest one has been answered.

use std::collections::VecDeque;
use std::time::Duration;

use preview_service::{PendingResponse, PreviewRequest, PreviewResponse, ServiceResult};

use crate::layers::Layers;
use crate::measure::{ms, us, Samples, Stopwatch};
use crate::serve::{report_failure, Served};

/// Requests the client keeps in flight.
pub const WINDOW: usize = 16;

/// Requests per block. The window drains at the end of each block, where
/// the trace state may change.
pub const BLOCK: usize = 1024;

/// Waits for `pending` without sleeping: polls until the reply is there.
fn spin_wait(pending: PendingResponse) -> ServiceResult<PreviewResponse> {
    loop {
        if let Some(result) = pending.wait_timeout(Duration::ZERO) {
            return result;
        }
        std::hint::spin_loop();
    }
}

/// What the reads measured.
#[derive(Debug, Default)]
pub struct Reads {
    pub latency_ms: Samples,
    pub failed: u64,
    /// Whether reads are the workload's op for `trace.unattributed_ratio`
    /// (on `browse`; on `publish-mix` the publishes are).
    pub record_coverage: bool,
}

impl Reads {
    /// Sends one block of `(tag, request)` pairs with [`WINDOW`] in flight
    /// and returns how many were answered correctly, and its wall time.
    /// `check(tag, response)` decides whether a response is correct. A
    /// traced block (`trace == Some(true)`) also feeds `layers`; in a traced
    /// run an untraced block gives the overhead ratio's base.
    pub fn block(
        &mut self,
        served: &Served,
        requests: impl IntoIterator<Item = (usize, PreviewRequest)>,
        mut check: impl FnMut(usize, &PreviewResponse) -> bool,
        trace: Option<bool>,
        layers: &mut Layers,
    ) -> (u64, Duration) {
        let traced = trace == Some(true);
        served.trace(traced);
        let block = Stopwatch::start();
        let mut ok = 0u64;
        let mut requests = requests.into_iter();
        let mut inflight: VecDeque<(usize, Stopwatch, _)> = VecDeque::with_capacity(WINDOW);
        loop {
            while inflight.len() < WINDOW {
                let Some((tag, request)) = requests.next() else {
                    break;
                };
                let watch = Stopwatch::start();
                inflight.push_back((tag, watch, served.service.submit(request)));
            }
            let Some((tag, watch, pending)) = inflight.pop_front() else {
                break;
            };
            let result = pending.and_then(spin_wait);
            let took = watch.elapsed();
            match result {
                Ok(response) if check(tag, &response) => {
                    ok += 1;
                    self.latency_ms.push(ms(took));
                    if traced {
                        let parts = response.queue_wait + response.compute;
                        layers.queue_wait_us.push(us(response.queue_wait));
                        layers.compute_us.push(us(response.compute));
                        layers.reply_us.push(us(took.saturating_sub(parts)));
                        if !response.cache_hit {
                            layers.cold_compute_ms.push(ms(response.compute));
                        }
                        layers.traced_op_ms.push(ms(took));
                        if self.record_coverage {
                            layers.record_coverage(ms(took), ms(parts));
                        }
                    } else if trace.is_some() {
                        layers.untraced_op_ms.push(ms(took));
                    }
                }
                other => {
                    report_failure(&format!("answer differs: {other:?}"));
                    self.failed += 1;
                    self.latency_ms.push_failed();
                }
            }
        }
        let took = block.elapsed();
        served.trace(false);
        (ok, took)
    }
}
