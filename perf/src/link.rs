//! The driver's side of a request: one interface over the in-process
//! gateway client and the wire client, so every workload runs the same
//! closed loop.

use crate::sut::PATIENCE;
use crate::trace::Tracer;
use sesr_net::{Frame, NetClient, RequestOptions, ResponseBody};
use sesr_serve::{DefenseRequest, DefenseResponse, GatewayClient, PendingResponse, RouteKey};
use sesr_tensor::Tensor;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A successful answer, whatever carried it.
pub struct Reply {
    pub defended: Tensor,
    pub label: Option<u64>,
    pub cache_hit: bool,
}

/// One completion: the request's sequence number and its outcome. Anything
/// but a defended image — refused, errored, `RetryAfter`,
/// `DeadlineExceeded` — is an `Err` and counts as failed.
pub type Completion = (u64, Result<Reply, String>);

/// A connection to the system under test.
pub enum Link {
    /// Straight into a `DefenseGateway`; replies come back in order (one
    /// worker, `skip_cache`).
    InProcess {
        client: GatewayClient,
        route: RouteKey,
        pending: VecDeque<(u64, Result<PendingResponse, String>)>,
    },
    /// One pipelined loopback connection; the wire correlation id is the
    /// sequence number.
    Wire {
        client: NetClient,
        options: RequestOptions,
    },
}

impl Link {
    /// An in-process link that bypasses the output cache, as a camera
    /// pipeline whose frames never repeat would.
    pub fn in_process(client: GatewayClient, route: RouteKey) -> Link {
        Link::InProcess {
            client,
            route,
            pending: VecDeque::new(),
        }
    }

    /// A wire link addressing `route` by label.
    pub fn wire(client: NetClient, route: RouteKey) -> Link {
        Link::Wire {
            client,
            options: RequestOptions {
                route: route.label(),
                ..RequestOptions::default()
            },
        }
    }

    /// Hand request `seq` to the system without waiting for its answer.
    /// A submission the system refuses surfaces as a failed completion.
    pub fn submit(&mut self, seq: u64, image: Tensor, tracer: &mut Tracer) {
        match self {
            Link::InProcess {
                client,
                route,
                pending,
            } => {
                let request = DefenseRequest::new(image).on(*route).skip_cache();
                let span = tracer.begin();
                let submitted = client.submit(request).map_err(|e| e.to_string());
                tracer.end(span, seq, "serve.submit");
                pending.push_back((seq, submitted));
            }
            Link::Wire { client, options } => {
                let span = tracer.begin();
                let mut request = client.make_request(image, options);
                tracer.end(span, seq, "net.content_hash");
                request.id = seq;
                let span = tracer.begin();
                let bytes = sesr_net::wire::encode(&Frame::Request(request));
                tracer.end(span, seq, "net.encode_request");
                let span = tracer.begin();
                // A dead socket shows up as a failed `next`, which is where
                // failures are counted.
                let _ = client.send_raw(&bytes);
                tracer.end(span, seq, "client.write");
            }
        }
    }

    /// The closed loop's wait: block until the next completion — in process
    /// exactly as `defend_blocking` blocks. `None` when nothing is in flight
    /// or nothing completed within [`PATIENCE`].
    pub fn wait(&mut self) -> Option<Completion> {
        match self {
            Link::InProcess { pending, .. } => {
                let (seq, submitted) = pending.pop_front()?;
                let outcome =
                    submitted.and_then(|waiting| waiting.wait().map_err(|e| e.to_string()));
                Some((seq, outcome.map(Reply::from)))
            }
            Link::Wire { client, .. } => receive(client, PATIENCE),
        }
    }

    /// The open loop's wait: the next completion if there is one within
    /// `timeout`, after which the caller has a request to send. In process
    /// this polls, because a `PendingResponse` cannot be waited on with a
    /// time limit.
    pub fn poll(&mut self, timeout: Duration) -> Option<Completion> {
        match self {
            Link::InProcess { pending, .. } => {
                let Some((seq, submitted)) = pending.pop_front() else {
                    // Nothing in flight: wait for the next send time.
                    std::thread::sleep(timeout);
                    return None;
                };
                let mut waiting = match submitted {
                    Ok(waiting) => waiting,
                    Err(refused) => return Some((seq, Err(refused))),
                };
                let deadline = Instant::now() + timeout;
                loop {
                    if let Some(result) = waiting.try_wait() {
                        let outcome = result.map_err(|e| e.to_string());
                        return Some((seq, outcome.map(Reply::from)));
                    }
                    if Instant::now() >= deadline {
                        pending.push_front((seq, Ok(waiting)));
                        return None;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            Link::Wire { client, .. } => receive(client, timeout),
        }
    }
}

impl From<DefenseResponse> for Reply {
    fn from(response: DefenseResponse) -> Reply {
        Reply {
            defended: response.defended,
            label: response.label.map(|l| l as u64),
            cache_hit: response.cache_hit,
        }
    }
}

/// The next frame on a wire link, as a completion; `None` on a timeout.
fn receive(client: &mut NetClient, timeout: Duration) -> Option<Completion> {
    match client.recv(timeout) {
        Ok(Frame::Response(response)) => Some((
            response.id,
            match response.body {
                ResponseBody::Ok {
                    cache_hit,
                    label,
                    defended,
                } => Ok(Reply {
                    defended,
                    label,
                    cache_hit,
                }),
                other => Err(format!("{other:?}")),
            },
        )),
        Ok(other) => Some((u64::MAX, Err(format!("unexpected frame {other:?}")))),
        Err(sesr_net::NetError::TimedOut) => None,
        Err(err) => Some((u64::MAX, Err(err.to_string()))),
    }
}
