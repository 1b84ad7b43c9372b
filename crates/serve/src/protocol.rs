//! The versioned newline-delimited JSON protocol.
//!
//! One frame per line, one JSON object per frame, a `type` member naming
//! the frame. Requests flow client → server, responses server → client;
//! a `submit` is answered by `accepted` (or `shed`/`error`), then a stream
//! of `progress` frames, then exactly one terminal `result`, `error` or
//! `cancelled` frame for the job id. Parsing is total: any byte sequence
//! maps to either a frame or a [`ProtocolError`] — never a panic (this
//! module is inside the `no-panic-unwrap` lint perimeter).
//!
//! See `crates/serve/PROTOCOL.md` for the full wire documentation,
//! including the determinism contract.

use crate::json::{parse, Value};
use crate::spec::ModelSpec;
use etherm_core::RecoveryLedger;
use std::fmt;

/// Protocol version spoken by this build. A client `hello` with a
/// different version is answered with `ok = false` and the server's
/// version, so rolling upgrades fail loudly instead of misparsing.
pub const PROTOCOL_VERSION: u64 = 1;

/// A malformed frame: the structured answer to garbage input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn perr(message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        message: message.into(),
    }
}

/// The work class of a submitted job — the admission-control unit: each
/// class runs under its own Krylov iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// One transient on sampled wire lengths; QoI: per-wire peak
    /// temperatures plus the global peak.
    WireSizing,
    /// `etherm_reliability::find_critical_load` over drive scales 1–256,
    /// resolved to 1/256 of the failing scale, for the drive whose peak
    /// reaches the threshold; QoI: `[safe_scale, failing_scale]` (`[0, 1]`
    /// when the nominal drive already fails, `[256, 256]` when nothing up
    /// to 256 does). Sends no progress frames.
    Fusing,
    /// A seeded Monte Carlo campaign of `n_samples` transients through
    /// `etherm_core::run_ensemble`, each from a reset session; QoI:
    /// `[mean_peak, max_peak, min_peak]`. Streams progress.
    Campaign,
    /// QoI vectors for explicit parameter samples, served by the surrogate
    /// tier when one is registered, through `etherm_core::FullSolve`
    /// otherwise.
    Qoi,
}

impl RequestClass {
    pub fn as_str(self) -> &'static str {
        match self {
            RequestClass::WireSizing => "wire_sizing",
            RequestClass::Fusing => "fusing",
            RequestClass::Campaign => "campaign",
            RequestClass::Qoi => "qoi",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "wire_sizing" => Some(RequestClass::WireSizing),
            "fusing" => Some(RequestClass::Fusing),
            "campaign" => Some(RequestClass::Campaign),
            "qoi" => Some(RequestClass::Qoi),
            _ => None,
        }
    }
}

/// Job parameters; every field has a protocol-level default so a minimal
/// `submit` stays small. Validation happens at parse time: non-finite or
/// non-positive values are rejected as protocol errors.
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    /// Transient end time (s).
    pub t_end: f64,
    /// Implicit-Euler steps.
    pub n_steps: usize,
    /// Campaign sample count.
    pub n_samples: usize,
    /// Peak-temperature threshold (K) for `fusing`.
    pub threshold: f64,
    /// Relative wire-length spread for seeded sampling (`wire_sizing`,
    /// `campaign`).
    pub spread: f64,
    /// Explicit parameter samples for `qoi` (one inner vector per sample;
    /// dimension = wire count of the model).
    pub samples: Vec<Vec<f64>>,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            t_end: 1.0,
            n_steps: 10,
            n_samples: 4,
            threshold: 400.0,
            spread: 0.05,
            samples: Vec::new(),
        }
    }
}

impl JobParams {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("t_end".to_string(), Value::num(self.t_end)),
            ("n_steps".to_string(), Value::uint(self.n_steps as u64)),
            ("n_samples".to_string(), Value::uint(self.n_samples as u64)),
            ("threshold".to_string(), Value::num(self.threshold)),
            ("spread".to_string(), Value::num(self.spread)),
        ];
        if !self.samples.is_empty() {
            members.push((
                "samples".to_string(),
                Value::Array(
                    self.samples
                        .iter()
                        .map(|s| Value::Array(s.iter().map(|&x| Value::num(x)).collect()))
                        .collect(),
                ),
            ));
        }
        Value::Object(members)
    }

    fn from_value(v: &Value) -> Result<JobParams, ProtocolError> {
        let mut params = JobParams::default();
        let pos_f64 = |name: &str, v: &Value| -> Result<f64, ProtocolError> {
            v.as_f64()
                .filter(|&x| x > 0.0)
                .ok_or_else(|| perr(format!("params.{name} must be a positive finite number")))
        };
        if let Some(x) = v.get("t_end") {
            params.t_end = pos_f64("t_end", x)?;
        }
        if let Some(x) = v.get("n_steps") {
            params.n_steps = x
                .as_u64()
                .filter(|n| (1..=100_000).contains(n))
                .ok_or_else(|| perr("params.n_steps must be in 1..=100000"))?
                as usize;
        }
        if let Some(x) = v.get("n_samples") {
            params.n_samples = x
                .as_u64()
                .filter(|n| (1..=1_000_000).contains(n))
                .ok_or_else(|| perr("params.n_samples must be in 1..=1000000"))?
                as usize;
        }
        if let Some(x) = v.get("threshold") {
            params.threshold = pos_f64("threshold", x)?;
        }
        if let Some(x) = v.get("spread") {
            params.spread = x
                .as_f64()
                .filter(|&s| (0.0..1.0).contains(&s))
                .ok_or_else(|| perr("params.spread must be in [0, 1)"))?;
        }
        if let Some(x) = v.get("samples") {
            let rows = x
                .as_array()
                .ok_or_else(|| perr("params.samples must be an array of arrays"))?;
            let mut samples = Vec::with_capacity(rows.len());
            for row in rows {
                let cols = row
                    .as_array()
                    .ok_or_else(|| perr("params.samples rows must be arrays"))?;
                let mut sample = Vec::with_capacity(cols.len());
                for c in cols {
                    sample.push(
                        c.as_f64()
                            .ok_or_else(|| perr("params.samples entries must be finite numbers"))?,
                    );
                }
                samples.push(sample);
            }
            params.samples = samples;
        }
        Ok(params)
    }
}

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Hello {
        version: u64,
    },
    Submit {
        id: u64,
        class: RequestClass,
        model: ModelSpec,
        params: JobParams,
        seed: u64,
    },
    Cancel {
        id: u64,
    },
    Health,
    Shutdown,
}

impl Request {
    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Hello { version } => Value::Object(vec![
                ("type".to_string(), Value::str("hello")),
                ("version".to_string(), Value::uint(*version)),
            ]),
            Request::Submit {
                id,
                class,
                model,
                params,
                seed,
            } => Value::Object(vec![
                ("type".to_string(), Value::str("submit")),
                ("id".to_string(), Value::uint(*id)),
                ("class".to_string(), Value::str(class.as_str())),
                ("model".to_string(), model.to_value()),
                ("params".to_string(), params.to_value()),
                ("seed".to_string(), Value::uint(*seed)),
            ]),
            Request::Cancel { id } => Value::Object(vec![
                ("type".to_string(), Value::str("cancel")),
                ("id".to_string(), Value::uint(*id)),
            ]),
            Request::Health => Value::Object(vec![("type".to_string(), Value::str("health"))]),
            Request::Shutdown => Value::Object(vec![("type".to_string(), Value::str("shutdown"))]),
        };
        v.to_json()
    }

    /// Parses one NDJSON line.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for anything that is not a well-formed request
    /// frame — malformed JSON, unknown types, missing or invalid fields.
    pub fn from_line(line: &str) -> Result<Request, ProtocolError> {
        let v = parse(line).map_err(|e| perr(e.to_string()))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| perr("missing \"type\" member"))?;
        let id_of = |v: &Value| -> Result<u64, ProtocolError> {
            v.get("id")
                .and_then(Value::as_u64)
                .filter(|&id| id > 0)
                .ok_or_else(|| perr("missing or invalid \"id\" (must be a positive integer)"))
        };
        match ty {
            "hello" => Ok(Request::Hello {
                version: v
                    .get("version")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| perr("hello needs an integer \"version\""))?,
            }),
            "submit" => {
                let id = id_of(&v)?;
                let class = v
                    .get("class")
                    .and_then(Value::as_str)
                    .and_then(RequestClass::from_str)
                    .ok_or_else(|| {
                        perr("submit needs \"class\" in {wire_sizing, fusing, campaign, qoi}")
                    })?;
                let model = v
                    .get("model")
                    .and_then(ModelSpec::from_value)
                    .ok_or_else(|| perr("submit needs a valid \"model\" spec"))?;
                let params = match v.get("params") {
                    Some(p) => JobParams::from_value(p)?,
                    None => JobParams::default(),
                };
                let seed = v.get("seed").and_then(Value::as_u64).unwrap_or(0);
                Ok(Request::Submit {
                    id,
                    class,
                    model,
                    params,
                    seed,
                })
            }
            "cancel" => Ok(Request::Cancel { id: id_of(&v)? }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(perr(format!("unknown request type {other:?}"))),
        }
    }
}

/// Structured error kinds carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The job hit its request class's Krylov iteration budget
    /// ([`etherm_core::CoreError::BudgetExhausted`]).
    BudgetExhausted,
    /// A campaign sample (or the whole job) was quarantined by the
    /// failure policy.
    Quarantined,
    /// The request was well-formed JSON but semantically invalid (bad
    /// frame, bad spec, unknown job id, wrong sample dimension).
    Invalid,
    /// An internal solver failure that is not a budget or quarantine
    /// condition.
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BudgetExhausted => "budget-exhausted",
            ErrorKind::Quarantined => "quarantined",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "budget-exhausted" => Some(ErrorKind::BudgetExhausted),
            "quarantined" => Some(ErrorKind::Quarantined),
            "invalid" => Some(ErrorKind::Invalid),
            "internal" => Some(ErrorKind::Internal),
            _ => None,
        }
    }
}

/// Per-model health in a [`Response::Health`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelHealth {
    /// The model's content hash, hex (u64 does not fit losslessly in a
    /// JSON number).
    pub model: String,
    /// Jobs completed against this model.
    pub jobs_done: u64,
    /// Idle pooled sessions.
    pub idle_sessions: u64,
    /// Total sessions ever created for the pool.
    pub sessions_created: u64,
    /// Whether the recovery ledger crossed the degradation threshold
    /// (new work on this model is shed).
    pub degraded: bool,
    /// Merged recovery-ladder counts over every returned session.
    pub ledger: RecoveryLedger,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Hello {
        version: u64,
        ok: bool,
    },
    Accepted {
        id: u64,
    },
    Shed {
        id: u64,
        reason: String,
        queue_depth: u64,
    },
    Progress {
        id: u64,
        done: u64,
        total: u64,
    },
    Result {
        id: u64,
        /// The QoI vector (class-specific layout, see PROTOCOL.md).
        qoi: Vec<f64>,
        /// `"full"` or `"surrogate"` — which tier produced the answer.
        served_by: String,
        /// Samples that paid for a transient solve.
        full_solves: u64,
        /// Samples served without a solve (surrogate tier).
        served: u64,
        /// Krylov iterations spent by the job.
        iterations: u64,
    },
    Error {
        id: u64,
        kind: ErrorKind,
        message: String,
    },
    Cancelled {
        id: u64,
    },
    Health {
        version: u64,
        uptime_ms: u64,
        queue_depth: u64,
        shed_total: u64,
        registry_compiles: u64,
        registry_hits: u64,
        models: Vec<ModelHealth>,
    },
}

fn ledger_to_value(l: &RecoveryLedger) -> Value {
    Value::Object(vec![
        ("solve_retries".to_string(), Value::uint(l.solve_retries as u64)),
        ("forced_refreshes".to_string(), Value::uint(l.forced_refreshes as u64)),
        ("precond_fallbacks".to_string(), Value::uint(l.precond_fallbacks as u64)),
        ("dt_halvings".to_string(), Value::uint(l.dt_halvings as u64)),
        ("recovered_solves".to_string(), Value::uint(l.recovered_solves as u64)),
        ("recovered_steps".to_string(), Value::uint(l.recovered_steps as u64)),
    ])
}

fn ledger_from_value(v: &Value) -> Option<RecoveryLedger> {
    let field = |name: &str| -> Option<usize> {
        usize::try_from(v.get(name)?.as_u64()?).ok()
    };
    Some(RecoveryLedger {
        solve_retries: field("solve_retries")?,
        forced_refreshes: field("forced_refreshes")?,
        precond_fallbacks: field("precond_fallbacks")?,
        dt_halvings: field("dt_halvings")?,
        recovered_solves: field("recovered_solves")?,
        recovered_steps: field("recovered_steps")?,
    })
}

impl Response {
    /// Serializes to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Hello { version, ok } => Value::Object(vec![
                ("type".to_string(), Value::str("hello")),
                ("version".to_string(), Value::uint(*version)),
                ("ok".to_string(), Value::Bool(*ok)),
            ]),
            Response::Accepted { id } => Value::Object(vec![
                ("type".to_string(), Value::str("accepted")),
                ("id".to_string(), Value::uint(*id)),
            ]),
            Response::Shed {
                id,
                reason,
                queue_depth,
            } => Value::Object(vec![
                ("type".to_string(), Value::str("shed")),
                ("id".to_string(), Value::uint(*id)),
                ("reason".to_string(), Value::str(reason)),
                ("queue_depth".to_string(), Value::uint(*queue_depth)),
            ]),
            Response::Progress { id, done, total } => Value::Object(vec![
                ("type".to_string(), Value::str("progress")),
                ("id".to_string(), Value::uint(*id)),
                ("done".to_string(), Value::uint(*done)),
                ("total".to_string(), Value::uint(*total)),
            ]),
            Response::Result {
                id,
                qoi,
                served_by,
                full_solves,
                served,
                iterations,
            } => Value::Object(vec![
                ("type".to_string(), Value::str("result")),
                ("id".to_string(), Value::uint(*id)),
                (
                    "qoi".to_string(),
                    Value::Array(qoi.iter().map(|&x| Value::num(x)).collect()),
                ),
                ("served_by".to_string(), Value::str(served_by)),
                ("full_solves".to_string(), Value::uint(*full_solves)),
                ("served".to_string(), Value::uint(*served)),
                ("iterations".to_string(), Value::uint(*iterations)),
            ]),
            Response::Error { id, kind, message } => Value::Object(vec![
                ("type".to_string(), Value::str("error")),
                ("id".to_string(), Value::uint(*id)),
                ("kind".to_string(), Value::str(kind.as_str())),
                ("message".to_string(), Value::str(message)),
            ]),
            Response::Cancelled { id } => Value::Object(vec![
                ("type".to_string(), Value::str("cancelled")),
                ("id".to_string(), Value::uint(*id)),
            ]),
            Response::Health {
                version,
                uptime_ms,
                queue_depth,
                shed_total,
                registry_compiles,
                registry_hits,
                models,
            } => Value::Object(vec![
                ("type".to_string(), Value::str("health")),
                ("version".to_string(), Value::uint(*version)),
                ("uptime_ms".to_string(), Value::uint(*uptime_ms)),
                ("queue_depth".to_string(), Value::uint(*queue_depth)),
                ("shed_total".to_string(), Value::uint(*shed_total)),
                ("registry_compiles".to_string(), Value::uint(*registry_compiles)),
                ("registry_hits".to_string(), Value::uint(*registry_hits)),
                (
                    "models".to_string(),
                    Value::Array(
                        models
                            .iter()
                            .map(|m| {
                                Value::Object(vec![
                                    ("model".to_string(), Value::str(&m.model)),
                                    ("jobs_done".to_string(), Value::uint(m.jobs_done)),
                                    ("idle_sessions".to_string(), Value::uint(m.idle_sessions)),
                                    (
                                        "sessions_created".to_string(),
                                        Value::uint(m.sessions_created),
                                    ),
                                    ("degraded".to_string(), Value::Bool(m.degraded)),
                                    ("ledger".to_string(), ledger_to_value(&m.ledger)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        v.to_json()
    }

    /// Parses one NDJSON line (the client half; servers never receive
    /// responses, but the bench clients and the scripted CI session do).
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] for anything that is not a well-formed response
    /// frame.
    pub fn from_line(line: &str) -> Result<Response, ProtocolError> {
        let v = parse(line).map_err(|e| perr(e.to_string()))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| perr("missing \"type\" member"))?;
        let id_of = |v: &Value| -> Result<u64, ProtocolError> {
            v.get("id")
                .and_then(Value::as_u64)
                .ok_or_else(|| perr("missing or invalid \"id\""))
        };
        let uint_of = |v: &Value, name: &str| -> Result<u64, ProtocolError> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| perr(format!("missing or invalid \"{name}\"")))
        };
        match ty {
            "hello" => Ok(Response::Hello {
                version: uint_of(&v, "version")?,
                ok: v
                    .get("ok")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| perr("hello needs \"ok\""))?,
            }),
            "accepted" => Ok(Response::Accepted { id: id_of(&v)? }),
            "shed" => Ok(Response::Shed {
                id: id_of(&v)?,
                reason: v
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or_else(|| perr("shed needs \"reason\""))?
                    .to_string(),
                queue_depth: uint_of(&v, "queue_depth")?,
            }),
            "progress" => Ok(Response::Progress {
                id: id_of(&v)?,
                done: uint_of(&v, "done")?,
                total: uint_of(&v, "total")?,
            }),
            "result" => {
                let qoi_v = v
                    .get("qoi")
                    .and_then(Value::as_array)
                    .ok_or_else(|| perr("result needs a numeric \"qoi\" array"))?;
                let mut qoi = Vec::with_capacity(qoi_v.len());
                for x in qoi_v {
                    qoi.push(
                        x.as_f64()
                            .ok_or_else(|| perr("result qoi entries must be finite numbers"))?,
                    );
                }
                Ok(Response::Result {
                    id: id_of(&v)?,
                    qoi,
                    served_by: v
                        .get("served_by")
                        .and_then(Value::as_str)
                        .ok_or_else(|| perr("result needs \"served_by\""))?
                        .to_string(),
                    full_solves: uint_of(&v, "full_solves")?,
                    served: uint_of(&v, "served")?,
                    iterations: uint_of(&v, "iterations")?,
                })
            }
            "error" => Ok(Response::Error {
                id: id_of(&v)?,
                kind: v
                    .get("kind")
                    .and_then(Value::as_str)
                    .and_then(ErrorKind::from_str)
                    .ok_or_else(|| perr("error needs a known \"kind\""))?,
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .ok_or_else(|| perr("error needs \"message\""))?
                    .to_string(),
            }),
            "cancelled" => Ok(Response::Cancelled { id: id_of(&v)? }),
            "health" => {
                let models_v = v
                    .get("models")
                    .and_then(Value::as_array)
                    .ok_or_else(|| perr("health needs \"models\""))?;
                let mut models = Vec::with_capacity(models_v.len());
                for m in models_v {
                    let ledger = m
                        .get("ledger")
                        .and_then(ledger_from_value)
                        .ok_or_else(|| perr("health model needs a \"ledger\""))?;
                    models.push(ModelHealth {
                        model: m
                            .get("model")
                            .and_then(Value::as_str)
                            .ok_or_else(|| perr("health model needs \"model\""))?
                            .to_string(),
                        jobs_done: uint_of(m, "jobs_done")?,
                        idle_sessions: uint_of(m, "idle_sessions")?,
                        sessions_created: uint_of(m, "sessions_created")?,
                        degraded: m
                            .get("degraded")
                            .and_then(Value::as_bool)
                            .ok_or_else(|| perr("health model needs \"degraded\""))?,
                        ledger,
                    });
                }
                Ok(Response::Health {
                    version: uint_of(&v, "version")?,
                    uptime_ms: uint_of(&v, "uptime_ms")?,
                    queue_depth: uint_of(&v, "queue_depth")?,
                    shed_total: uint_of(&v, "shed_total")?,
                    registry_compiles: uint_of(&v, "registry_compiles")?,
                    registry_hits: uint_of(&v, "registry_hits")?,
                    models,
                })
            }
            other => Err(perr(format!("unknown response type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello { version: 1 },
            Request::Submit {
                id: 7,
                class: RequestClass::Campaign,
                model: ModelSpec::block_small(),
                params: JobParams {
                    samples: vec![vec![0.1, -0.2]],
                    ..JobParams::default()
                },
                seed: 42,
            },
            Request::Cancel { id: 3 },
            Request::Health,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.to_line();
            assert_eq!(Request::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Hello { version: 1, ok: true },
            Response::Accepted { id: 1 },
            Response::Shed {
                id: 2,
                reason: "queue full".into(),
                queue_depth: 64,
            },
            Response::Progress { id: 1, done: 3, total: 10 },
            Response::Result {
                id: 1,
                qoi: vec![312.5, 0.25],
                served_by: "full".into(),
                full_solves: 4,
                served: 0,
                iterations: 123,
            },
            Response::Error {
                id: 9,
                kind: ErrorKind::BudgetExhausted,
                message: "budget exhausted: 50 iterations spent of 40".into(),
            },
            Response::Cancelled { id: 5 },
            Response::Health {
                version: 1,
                uptime_ms: 12,
                queue_depth: 0,
                shed_total: 2,
                registry_compiles: 2,
                registry_hits: 9,
                models: vec![ModelHealth {
                    model: "00ff".into(),
                    jobs_done: 11,
                    idle_sessions: 3,
                    sessions_created: 4,
                    degraded: false,
                    ledger: RecoveryLedger {
                        solve_retries: 1,
                        ..RecoveryLedger::default()
                    },
                }],
            },
        ];
        for r in resps {
            let line = r.to_line();
            assert_eq!(Response::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn garbage_is_a_structured_error() {
        for line in [
            "",
            "not json",
            "{}",
            "[1,2,3]",
            r#"{"type":"warp"}"#,
            r#"{"type":"submit","id":0}"#,
            r#"{"type":"submit","id":1,"class":"dance","model":{}}"#,
            r#"{"type":"cancel"}"#,
        ] {
            assert!(Request::from_line(line).is_err(), "{line:?}");
            assert!(Response::from_line(line).is_err(), "{line:?}");
        }
    }
}
