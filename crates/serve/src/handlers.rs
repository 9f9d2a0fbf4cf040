//! Request routing and endpoint logic.
//!
//! Every handler is a pure function of the request and the shared
//! [`ServeState`] (sharded registry + metrics + limits + optional
//! durability engine), returning the [`Endpoint`] label for metrics and a
//! [`Response`]. Match responses are deterministic functions of the
//! registry contents and the query — they carry no counters — so
//! concurrent clients asking the same question get byte-identical bodies
//! (asserted in `tests/serve_http.rs`).
//!
//! [`handle`] is the synchronous dispatcher: unit tests call it directly,
//! shard workers call it for queued single-shard jobs, and the reactor
//! calls it inline for cheap endpoints. The reactor decides *where* a
//! request runs via [`disposition`]; `/match/topk` is split into
//! [`validate_topk`] (reactor thread) → [`topk_partial`] (every shard) →
//! [`topk_render`] (the last shard to finish), and the sequential
//! composition of those three pieces inside [`handle`] is byte-identical
//! to the scattered execution.

use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::{Endpoint, Metrics};
use crate::persist::Persist;
use crate::registry::Registry;
use qmatch_core::index::{IndexParams, IndexPolicy, Signature};
use qmatch_core::mapping::{extract_mapping, path_of};
use qmatch_core::session::MatchSession;
use qmatch_core::trace::{Phase, Span};
use qmatch_core::{
    mapping_generation_leaves, quality, Aggregation, Algorithm, Component, MatchOutcome, Precision,
    PreparedSchema,
};
use qmatch_xsd::{parse_schema_with_limits, IngestLimits, SchemaTree, XsdError};
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Longest accepted schema name.
const MAX_NAME_LEN: usize = 128;

/// Everything a request handler can touch, shared by the reactor and all
/// shard workers.
pub struct ServeState {
    /// The sharded schema registry.
    pub registry: Registry,
    /// Request/latency/queue counters.
    pub metrics: Arc<Metrics>,
    /// Ingestion limits applied to `PUT /schemas/{name}` bodies.
    pub limits: IngestLimits,
    /// Registry durability (WAL + snapshots); `None` runs in-memory only.
    pub persist: Option<Persist>,
}

/// Where the reactor should run a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Cheap enough for the reactor thread (health, metrics, listings,
    /// and every parse-level error).
    Inline,
    /// Queue to one shard's worker (PUT, `/match` — keyed by owner).
    Shard {
        /// The owning shard's index.
        shard: usize,
        /// Endpoint label, pre-computed for backpressure/deadline errors.
        endpoint: Endpoint,
    },
    /// Fan out to every shard (`/match/topk`).
    Scatter,
}

/// Strips the optional `/v1` prefix; returns the effective path and
/// whether the request used the versioned surface.
fn strip_v1(path: &str) -> (&str, bool) {
    match path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => (rest, true),
        _ => (path, false),
    }
}

/// Decides where a parsed request should execute. Requests that will fail
/// validation stay [`Disposition::Inline`] where possible, but shard-side
/// validation failures (e.g. an unknown source schema) are fine — the
/// worker produces the same error response the inline path would.
pub fn disposition(req: &Request, registry: &Registry) -> Disposition {
    let (path, _) = strip_v1(&req.path);
    match (req.method.as_str(), path) {
        ("PUT", p) if p.strip_prefix("/schemas/").is_some_and(|n| !n.is_empty()) => {
            let name = p.strip_prefix("/schemas/").expect("guard");
            Disposition::Shard {
                shard: registry.shard_of(name),
                endpoint: Endpoint::SchemasPut,
            }
        }
        ("DELETE", p) if p.strip_prefix("/schemas/").is_some_and(|n| !n.is_empty()) => {
            // Routed to the owner shard like PUT, so all mutations of one
            // name serialize on one worker thread.
            let name = p.strip_prefix("/schemas/").expect("guard");
            Disposition::Shard {
                shard: registry.shard_of(name),
                endpoint: Endpoint::SchemasDelete,
            }
        }
        ("POST", "/match") => match req.query_param("source") {
            Some(source) => Disposition::Shard {
                shard: registry.shard_of(source),
                endpoint: Endpoint::Match,
            },
            None => Disposition::Inline, // will 400 without touching a shard
        },
        ("POST", "/match/topk") => Disposition::Scatter,
        _ => Disposition::Inline,
    }
}

/// Adds the deprecation headers to responses served via unversioned alias
/// paths. The canonical API surface lives under `/v1/...`; the original
/// paths keep working but carry `Deprecation: true` and a
/// `Link: </v1/...>; rel="successor-version"` header.
pub fn finalize(path: &str, endpoint: Endpoint, response: Response) -> Response {
    let (_, versioned) = strip_v1(path);
    if versioned || endpoint == Endpoint::Other {
        response
    } else {
        response
            .with_header("deprecation", "true")
            .with_header("link", format!("</v1{path}>; rel=\"successor-version\""))
    }
}

/// Routes one request to its handler and applies the deprecation-header
/// policy. This is the full synchronous path — on the server, single-shard
/// jobs run it on their owner shard's worker thread.
pub fn handle(req: &Request, state: &ServeState) -> (Endpoint, Response) {
    let (path, _) = strip_v1(&req.path);
    let (endpoint, response) = route(req, path, state);
    (endpoint, finalize(&req.path, endpoint, response))
}

/// Dispatches on the (already version-stripped) path.
fn route(req: &Request, path: &str, state: &ServeState) -> (Endpoint, Response) {
    let registry = &state.registry;
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => (
            Endpoint::Healthz,
            Response::json(200, Json::obj().field("status", Json::str("ok")).render()),
        ),
        ("GET", "/metrics") => {
            let mut text = state.metrics.render(&registry.snapshot());
            // The live fraction lives on the durability engine, not the
            // counter block: without --data-dir (or right after a
            // compaction) the WAL is empty, which counts as all-live.
            let live = state
                .persist
                .as_ref()
                .map_or(1.0, |p| p.wal_live_fraction());
            text.push_str(&format!(
                "qmatch_wal_live_fraction {}\n",
                crate::json::fmt_f64(live)
            ));
            (Endpoint::Metrics, Response::text(200, text))
        }
        ("GET", "/schemas") => (Endpoint::SchemasList, list_schemas(registry)),
        ("PUT", path)
            if path
                .strip_prefix("/schemas/")
                .is_some_and(|n| !n.is_empty()) =>
        {
            let name = path.strip_prefix("/schemas/").expect("guard");
            (Endpoint::SchemasPut, put_schema(name, &req.body, state))
        }
        ("DELETE", path)
            if path
                .strip_prefix("/schemas/")
                .is_some_and(|n| !n.is_empty()) =>
        {
            let name = path.strip_prefix("/schemas/").expect("guard");
            (Endpoint::SchemasDelete, delete_schema(name, state))
        }
        ("POST", "/match") => (Endpoint::Match, do_match(req, registry)),
        ("POST", "/match/topk") => (Endpoint::MatchTopk, do_topk(req, state)),
        (_, "/healthz" | "/metrics" | "/schemas" | "/match" | "/match/topk") => (
            Endpoint::Other,
            error(405, "method_not_allowed", "method not allowed on this path"),
        ),
        (method, path)
            if path.starts_with("/schemas/") && method != "PUT" && method != "DELETE" =>
        {
            (
                Endpoint::Other,
                error(
                    405,
                    "method_not_allowed",
                    "schemas are registered with PUT and removed with DELETE",
                ),
            )
        }
        _ => (Endpoint::Other, error(404, "not_found", "no such endpoint")),
    }
}

/// Builds the uniform error body `{"error":{"kind":...,"message":...}}`.
pub fn error(status: u16, kind: &str, message: impl Into<String>) -> Response {
    Response::json(
        status,
        Json::obj()
            .field(
                "error",
                Json::obj()
                    .field("kind", Json::str(kind))
                    .field("message", Json::str(message.into())),
            )
            .render(),
    )
}

fn list_schemas(registry: &Registry) -> Response {
    let infos = registry.list();
    let stats = registry.cache_stats();
    let schemas = infos
        .into_iter()
        .map(|info| {
            Json::obj()
                .field("name", Json::str(info.name))
                .field("nodes", Json::UInt(info.nodes as u64))
                .field("max_depth", Json::UInt(info.max_depth as u64))
                .field("source_bytes", Json::UInt(info.source_bytes))
                .field("resident", Json::Bool(info.resident))
        })
        .collect();
    Response::json(
        200,
        Json::obj()
            .field(
                "docs",
                Json::str(
                    "API v1: use /v1/schemas, /v1/match, /v1/match/topk, /v1/metrics, \
                     /v1/healthz; unversioned paths are deprecated aliases",
                ),
            )
            .field("count", Json::UInt(registry.len() as u64))
            .field("schemas", Json::Arr(schemas))
            .field(
                "label_cache",
                Json::obj()
                    .field("hits", Json::UInt(stats.hits))
                    .field("misses", Json::UInt(stats.misses))
                    .field("hit_rate", Json::Num(stats.hit_rate())),
            )
            .render(),
    )
}

fn put_schema(name: &str, body: &[u8], state: &ServeState) -> Response {
    if name.len() > MAX_NAME_LEN
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return error(
            400,
            "invalid_name",
            "schema names are 1-128 characters of [A-Za-z0-9._-]",
        );
    }
    if body.is_empty() {
        return error(
            400,
            "empty_body",
            "PUT a schema document as the request body",
        );
    }
    let Ok(text) = std::str::from_utf8(body) else {
        return error(400, "invalid_schema", "schema body is not UTF-8");
    };
    let started = Instant::now();
    let tree = parse_schema_with_limits(text, &state.limits)
        .and_then(|schema| SchemaTree::compile_with_limits(&schema, &state.limits));
    state.metrics.record_phase(&Span {
        rows: tree.as_ref().map_or(0, |tree| tree.len() as u64),
        cells: body.len() as u64,
        wall: started.elapsed(),
        ..Span::empty(Phase::Ingest)
    });
    let tree = match tree {
        Ok(tree) => tree,
        Err(e @ XsdError::LimitExceeded { .. }) => {
            state.metrics.add_rejected_by_limits();
            return error(413, "limit_exceeded", e.to_string());
        }
        Err(e) => return error(400, "invalid_schema", e.to_string()),
    };
    state.metrics.add_ingested(body.len() as u64);
    // Register in memory FIRST, then log. The ordering is load-bearing for
    // durability: `Persist::compact` dumps the registry under the WAL
    // lock, so a record is only ever truncated away after the registry
    // state that covers it is snapshotted.
    let registered = state.registry.register(name, tree, body);
    if let Some(persist) = &state.persist {
        match persist.append(name, body) {
            Ok(bytes) => {
                state.metrics.add_wal_bytes(bytes);
                if persist.needs_compaction() {
                    // Best effort: a failed compaction leaves the (larger
                    // but complete) WAL in place.
                    let _ = persist.compact(|| state.registry.dump());
                }
            }
            Err(e) => {
                return error(
                    500,
                    "persist_failed",
                    format!("schema registered but not durably logged: {e}"),
                )
            }
        }
    }
    Response::json(
        if registered.replaced { 200 } else { 201 },
        Json::obj()
            .field("name", Json::str(name))
            .field("replaced", Json::Bool(registered.replaced))
            .field("nodes", Json::UInt(registered.nodes as u64))
            .field("max_depth", Json::UInt(registered.max_depth as u64))
            .render(),
    )
}

fn delete_schema(name: &str, state: &ServeState) -> Response {
    // Remove in memory FIRST, then log the tombstone — the same ordering
    // contract as put_schema: `Persist::compact` dumps the registry under
    // the WAL lock, so a truncated-away tombstone is always covered by a
    // snapshot that already excludes the schema.
    if !state.registry.remove(name) {
        return error(
            404,
            "unknown_schema",
            format!("no schema named {name:?} is registered"),
        );
    }
    if let Some(persist) = &state.persist {
        match persist.append_tombstone(name) {
            Ok(bytes) => {
                state.metrics.add_wal_bytes(bytes);
                if persist.needs_compaction() {
                    let _ = persist.compact(|| state.registry.dump());
                }
            }
            Err(e) => {
                return error(
                    500,
                    "persist_failed",
                    format!("schema removed but deletion not durably logged: {e}"),
                )
            }
        }
    }
    Response::json(
        200,
        Json::obj()
            .field("name", Json::str(name))
            .field("deleted", Json::Bool(true))
            .render(),
    )
}

/// Decodes the `algo=` query parameter (default `hybrid`) of `/v1/match`.
/// Thresholds and mapping extraction follow [`qmatch_core::quality`], so
/// the serve surface and the CLI agree byte-for-byte on every algorithm's
/// defaults.
fn parse_algo(req: &Request) -> Result<Algorithm, Response> {
    match req.query_param("algo").unwrap_or("hybrid") {
        "hybrid" => Ok(Algorithm::Hybrid),
        "linguistic" => Ok(Algorithm::Linguistic),
        "structural" => Ok(Algorithm::Structural),
        "cupid" => Ok(Algorithm::Cupid),
        "tree-edit" => Ok(Algorithm::TreeEdit),
        "composite" => {
            let components = match req.query_param("components") {
                None => vec![Component::Linguistic, Component::Structural],
                Some(list) => list
                    .split(',')
                    .map(|c| match c.trim() {
                        "linguistic" => Ok(Component::Linguistic),
                        "structural" => Ok(Component::Structural),
                        "hybrid" => Ok(Component::Hybrid),
                        "tree-edit" => Ok(Component::TreeEdit),
                        other => Err(error(
                            400,
                            "unknown_component",
                            format!("unknown composite component {other:?}"),
                        )),
                    })
                    .collect::<Result<_, _>>()?,
            };
            let aggregation = match req.query_param("agg").unwrap_or("average") {
                "max" => Aggregation::Max,
                "min" => Aggregation::Min,
                "average" => Aggregation::Average,
                other => {
                    return Err(error(
                        400,
                        "unknown_aggregation",
                        format!("unknown aggregation {other:?} (use max|min|average)"),
                    ))
                }
            };
            Ok(Algorithm::Composite {
                components,
                aggregation,
            })
        }
        other => Err(error(
            400,
            "unknown_algo",
            format!(
                "unknown algorithm {other:?} \
                 (use hybrid|linguistic|structural|cupid|tree-edit|composite)"
            ),
        )),
    }
}

fn required_schema(
    req: &Request,
    registry: &Registry,
    param: &str,
) -> Result<(String, Arc<PreparedSchema>), Response> {
    let name = req
        .query_param(param)
        .ok_or_else(|| {
            error(
                400,
                "missing_parameter",
                format!("query parameter {param:?} is required"),
            )
        })?
        .to_owned();
    let prepared = registry.prepared(&name).ok_or_else(|| {
        error(
            404,
            "unknown_schema",
            format!("no schema named {name:?} is registered"),
        )
    })?;
    Ok((name, prepared))
}

fn run_algo(
    algorithm: &Algorithm,
    session: &MatchSession,
    source: &PreparedSchema,
    target: &PreparedSchema,
    precision: Precision,
) -> Result<(MatchOutcome, f64), Response> {
    let default_threshold = quality::default_threshold(algorithm, session.config());
    session
        .run_with_precision(algorithm, source, target, precision)
        .map(|outcome| (outcome, default_threshold))
        .map_err(|e| error(400, "bad_composite", e.to_string()))
}

/// The query of `/match`, decoded and typed. Decoding checks `algo=`
/// (with `components=` and `agg=` for `composite`), then `explain=`
/// against the algorithm, then the `source` and `target` schemas, then
/// `threshold=` and `precision=`, and answers the first bad one with its
/// typed 400 (404 for an unknown schema).
struct MatchQuery {
    /// `algo=` (default `hybrid`).
    algorithm: Algorithm,
    /// `explain=1`: explain every mapped pair (hybrid only).
    explain: bool,
    /// The `source` schema's name and prepared artifact.
    source: (String, Arc<PreparedSchema>),
    /// The `target` schema's name and prepared artifact.
    target: (String, Arc<PreparedSchema>),
    /// `threshold=` (default: the algorithm's).
    threshold: Option<f64>,
    /// `precision=` (default: the matching session's).
    precision: Option<Precision>,
}

impl MatchQuery {
    /// Decodes the query of `req`, looking its schemas up in `registry`.
    fn decode(req: &Request, registry: &Registry) -> Result<MatchQuery, Response> {
        let algorithm = parse_algo(req)?;
        let explain = req.query_param("explain") == Some("1");
        // Reject the invalid combination up front, before the
        // (potentially expensive) match runs.
        if explain && algorithm != Algorithm::Hybrid {
            return Err(error(
                400,
                "bad_request",
                "explain=1 requires the hybrid algorithm",
            ));
        }
        let source = required_schema(req, registry, "source")?;
        let target = required_schema(req, registry, "target")?;
        Ok(MatchQuery {
            algorithm,
            explain,
            source,
            target,
            threshold: parse_threshold(req)?,
            precision: parse_precision(req)?,
        })
    }
}

fn do_match(req: &Request, registry: &Registry) -> Response {
    let query = match MatchQuery::decode(req, registry) {
        Ok(query) => query,
        Err(response) => return response,
    };
    let MatchQuery {
        algorithm,
        explain,
        source: (source_name, source),
        target: (target_name, target),
        threshold,
        precision,
    } = query;
    // The owner shard's session: on the server this IS the current worker
    // thread's session, so its label cache and arena stay thread-hot.
    // Scores are pure functions of config + trees, so which session runs
    // the match never shows in the bytes.
    let session = registry.owner(&source_name).session();
    let precision = precision.unwrap_or_else(|| session.config().precision);
    let (sp, tp) = (&*source, &*target);
    let (outcome, default_threshold) = match run_algo(&algorithm, session, sp, tp, precision) {
        Ok(pair) => pair,
        Err(response) => return response,
    };
    let threshold = threshold.unwrap_or(default_threshold);
    // CUPID proposes leaf-anchored mappings; everything else uses greedy
    // 1:1 extraction over the whole matrix (same split as the CLI).
    let mapping = match algorithm {
        Algorithm::Cupid => mapping_generation_leaves(sp, tp, &outcome.matrix, threshold),
        _ => extract_mapping(&outcome.matrix, threshold),
    };
    let pairs = mapping
        .pairs
        .iter()
        .map(|c| {
            Json::obj()
                .field("source_path", Json::str(path_of(sp.tree(), c.source)))
                .field("target_path", Json::str(path_of(tp.tree(), c.target)))
                .field("score", Json::Num(c.score))
        })
        .collect();
    let mut body = Json::obj()
        .field("source", Json::str(source_name))
        .field("target", Json::str(target_name))
        .field("algo", Json::str(algorithm.name()))
        .field("threshold", Json::Num(threshold))
        .field("precision", Json::str(outcome.matrix.precision().name()))
        .field("total_qom", Json::Num(outcome.total_qom))
        .field("matches", Json::UInt(mapping.len() as u64))
        .field("mapping", Json::Arr(pairs));
    if algorithm == Algorithm::Hybrid {
        let category = session.category(sp, tp, &outcome);
        body = body.field("category", Json::str(category.to_string()));
        if explain {
            let explanations = mapping
                .pairs
                .iter()
                .map(|c| {
                    Json::str(
                        session
                            .explain(sp, tp, c.source, c.target, &outcome.matrix)
                            .to_string(),
                    )
                })
                .collect();
            body = body.field("explanations", Json::Arr(explanations));
        }
    }
    Response::json(200, body.render())
}

fn parse_threshold(req: &Request) -> Result<Option<f64>, Response> {
    match req.query_param("threshold") {
        None => Ok(None),
        Some(raw) => match raw.parse::<f64>() {
            Ok(t) if (0.0..=1.0).contains(&t) => Ok(Some(t)),
            _ => Err(error(
                400,
                "bad_threshold",
                format!("threshold {raw:?} is not a number in [0, 1]"),
            )),
        },
    }
}

/// The `precision=` query parameter (`f64`/`f32` matrix storage; `None`
/// falls back to the session default).
fn parse_precision(req: &Request) -> Result<Option<Precision>, Response> {
    match req.query_param("precision") {
        None => Ok(None),
        Some(raw) => raw
            .parse::<Precision>()
            .map(Some)
            .map_err(|e| error(400, "bad_precision", e.to_string())),
    }
}

/// A validated `/match/topk` query, ready to scatter across shards.
pub struct TopkPlan {
    /// The original request path (for the deprecation-header policy).
    pub path: String,
    /// Source schema name (excluded from the ranking).
    pub source: String,
    /// The source's prepared artifact, fetched once from its owner.
    pub prepared: Arc<PreparedSchema>,
    /// How many ranked targets to return.
    pub k: usize,
    /// Ranking algorithm (`hybrid` or `cupid`): every candidate's root
    /// QoM comes from this engine.
    pub algo: Algorithm,
    /// Matrix storage precision for every comparison.
    pub precision: Precision,
    /// Candidate-index policy (`off | auto | force`), echoed in the body.
    pub policy: IndexPolicy,
    /// The source's candidate signature, computed once on the reactor so
    /// every shard filters against the same session-independent hashes.
    pub signature: Signature,
}

/// The query parameters of `/match/topk` other than `source`, decoded and
/// typed. Decoding checks `k`, `algo`, `precision` and `index` in that
/// order and answers the first bad one with its typed 400.
#[derive(Debug)]
struct TopkQuery {
    /// `k=` (default 5): how many ranked targets to return, at least 1.
    k: usize,
    /// `algo=` (default `hybrid`): the ranking engine, `hybrid` or `cupid`.
    algo: Algorithm,
    /// `precision=` (default: the session's): matrix storage precision.
    precision: Precision,
    /// `index=` (default `auto`): the candidate-index policy.
    policy: IndexPolicy,
}

impl TopkQuery {
    /// Decodes the query of `req`; `precision` is the session default.
    fn decode(req: &Request, precision: Precision) -> Result<TopkQuery, Response> {
        let raw_k = req.query_param("k").unwrap_or("5");
        let k = match raw_k.parse::<usize>() {
            Ok(k) if k > 0 => k,
            _ => {
                return Err(error(
                    400,
                    "bad_k",
                    format!("k {raw_k:?} must be a positive integer"),
                ))
            }
        };
        let algo = match req.query_param("algo").unwrap_or("hybrid") {
            "hybrid" => Algorithm::Hybrid,
            "cupid" => Algorithm::Cupid,
            other => {
                return Err(error(
                    400,
                    "unknown_algo",
                    format!("unknown topk algorithm {other:?} (use hybrid|cupid)"),
                ))
            }
        };
        let precision = parse_precision(req)?.unwrap_or(precision);
        let policy = req
            .query_param("index")
            .unwrap_or("auto")
            .parse::<IndexPolicy>()
            .map_err(|message| error(400, "bad_index", message))?;
        Ok(TopkQuery {
            k,
            algo,
            precision,
            policy,
        })
    }
}

/// Validates a `/match/topk` request into a [`TopkPlan`]. Runs on the
/// reactor thread so invalid queries never occupy the match queue; the
/// `Err` response is NOT yet finalized (the caller applies [`finalize`]).
pub fn validate_topk(req: &Request, registry: &Registry) -> Result<TopkPlan, Response> {
    let (source, prepared) = required_schema(req, registry, "source")?;
    let session = registry.session();
    let query = TopkQuery::decode(req, session.config().precision)?;
    let signature = session.signature(&prepared);
    Ok(TopkPlan {
        path: req.path.clone(),
        source,
        prepared,
        k: query.k,
        algo: query.algo,
        precision: query.precision,
        policy: query.policy,
        signature,
    })
}

/// One shard's share of a topk scatter: rank the schemas *this shard
/// owns* against the plan's source, keep its local top `k`. The global
/// top `k` is a subset of the union of per-shard top `k`s, so local
/// truncation loses nothing — and each shard's bounded ranking
/// ([`Shard::rank`](crate::shard::Shard::rank)) is exactly its exhaustive
/// one.
pub fn topk_partial(state: &ServeState, shard_index: usize, plan: &TopkPlan) -> Vec<(String, f64)> {
    let shard = state.registry.shard(shard_index);
    // The auto policy keys off the GLOBAL registry size, never the
    // shard-local one: every shard must make the same indexed/exhaustive
    // decision or the ranking would depend on how names hash to shards.
    let indexed = plan
        .policy
        .engages(state.registry.len(), &IndexParams::default());
    let mut names = if indexed {
        shard.candidates(&plan.signature)
    } else {
        shard.names()
    };
    names.retain(|name| *name != plan.source);
    shard.rank(&plan.prepared, &names, &plan.algo, plan.k, plan.precision)
}

/// A ranking entry ordered for the gather heap: max-pop yields the
/// highest QoM, ties broken by lexicographically smallest name — exactly
/// the total order the sequential sort used, so merged output is
/// byte-identical.
struct Ranked(String, f64);

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> std::cmp::Ordering {
        self.1
            .total_cmp(&other.1)
            .then_with(|| other.0.cmp(&self.0))
    }
}

/// The gather half of topk: merge per-shard partials through a
/// total-order heap and render the response body. NOT yet finalized (the
/// caller applies [`finalize`]).
pub fn topk_render(plan: &TopkPlan, partials: Vec<(String, f64)>) -> Response {
    let mut heap: BinaryHeap<Ranked> = partials
        .into_iter()
        .map(|(name, qom)| Ranked(name, qom))
        .collect();
    let mut entries = Vec::with_capacity(plan.k.min(heap.len()));
    while entries.len() < plan.k {
        let Some(Ranked(name, qom)) = heap.pop() else {
            break;
        };
        entries.push(
            Json::obj()
                .field("target", Json::str(name))
                .field("total_qom", Json::Num(qom)),
        );
    }
    Response::json(
        200,
        Json::obj()
            .field("source", Json::str(plan.source.clone()))
            .field("k", Json::UInt(plan.k as u64))
            .field("algo", Json::str(plan.algo.name()))
            .field("precision", Json::str(plan.precision.name()))
            .field("index", Json::str(plan.policy.name()))
            .field("ranking", Json::Arr(entries))
            .render(),
    )
}

/// The sequential composition of validate → scatter → gather, used by the
/// synchronous [`handle`] path. Byte-identical to the fanned-out server
/// execution.
fn do_topk(req: &Request, state: &ServeState) -> Response {
    let plan = match validate_topk(req, &state.registry) {
        Ok(plan) => plan,
        Err(response) => return response,
    };
    let mut partials = Vec::new();
    for shard in 0..state.registry.shard_count() {
        partials.extend(topk_partial(state, shard, &plan));
    }
    topk_render(&plan, partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_core::model::MatchConfig;
    use qmatch_core::MatchSession;

    const PO: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="PO">
    <xs:complexType><xs:sequence>
      <xs:element name="OrderNo" type="xs:string"/>
      <xs:element name="Qty" type="xs:int"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;

    fn state() -> ServeState {
        state_with(Registry::single(
            MatchSession::new(MatchConfig::default()),
            8,
        ))
    }

    fn state_with(registry: Registry) -> ServeState {
        ServeState {
            registry,
            metrics: Arc::new(Metrics::new()),
            limits: IngestLimits::default(),
            persist: None,
        }
    }

    fn get(path: &str) -> Request {
        request("GET", path, b"")
    }

    fn request(method: &str, target: &str, body: &[u8]) -> Request {
        let head = crate::http::parse_head(&format!("{method} {target} HTTP/1.1")).unwrap();
        Request {
            method: head.method,
            path: head.path,
            query: head.query,
            headers: head.headers,
            body: body.to_vec(),
            keep_alive: true,
        }
    }

    fn body_text(response: &Response) -> String {
        String::from_utf8(response.body.clone()).unwrap()
    }

    #[test]
    fn healthz_and_unknown_paths() {
        let state = state();
        let (endpoint, response) = handle(&get("/healthz"), &state);
        assert_eq!(endpoint, Endpoint::Healthz);
        assert_eq!(response.status, 200);
        assert_eq!(body_text(&response), r#"{"status":"ok"}"#);
        let (endpoint, response) = handle(&get("/nope"), &state);
        assert_eq!(endpoint, Endpoint::Other);
        assert_eq!(response.status, 404);
        assert!(body_text(&response).contains("not_found"));
        let (_, response) = handle(&request("POST", "/healthz", b""), &state);
        assert_eq!(response.status, 405);
        let (_, response) = handle(&request("GET", "/schemas/po", b""), &state);
        assert_eq!(response.status, 405, "schemas/{{name}} is PUT-only");
    }

    #[test]
    fn put_then_list_then_match() {
        let state = state();
        let (endpoint, response) = handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        assert_eq!(endpoint, Endpoint::SchemasPut);
        assert_eq!(response.status, 201, "{}", body_text(&response));
        assert!(body_text(&response).contains(r#""replaced":false"#));
        // Replacing the same name answers 200.
        let (_, response) = handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        assert_eq!(response.status, 200);
        assert!(body_text(&response).contains(r#""replaced":true"#));
        let (_, response) = handle(&get("/schemas"), &state);
        let listing = body_text(&response);
        assert!(listing.contains(r#""count":1"#), "{listing}");
        assert!(listing.contains(r#""name":"po""#));
        let (endpoint, response) =
            handle(&request("POST", "/match?source=po&target=po", b""), &state);
        assert_eq!(endpoint, Endpoint::Match);
        assert_eq!(response.status, 200);
        let text = body_text(&response);
        assert!(text.contains(r#""total_qom":1"#), "self-match: {text}");
        assert!(text.contains(r#""category":"#));
    }

    #[test]
    fn v1_paths_route_and_legacy_paths_carry_deprecation() {
        let state = state();
        let (endpoint, response) = handle(&get("/v1/healthz"), &state);
        assert_eq!(endpoint, Endpoint::Healthz);
        assert_eq!(response.status, 200);
        assert!(response.headers.is_empty(), "versioned paths are canonical");
        let (endpoint, response) = handle(&get("/healthz"), &state);
        assert_eq!(endpoint, Endpoint::Healthz);
        assert!(response
            .headers
            .iter()
            .any(|(k, v)| *k == "deprecation" && v == "true"));
        assert!(response
            .headers
            .iter()
            .any(|(k, v)| *k == "link" && v == "</v1/healthz>; rel=\"successor-version\""));
        // Same body either way; only the headers differ.
        let (_, v1) = handle(&get("/v1/schemas"), &state);
        let (_, legacy) = handle(&get("/schemas"), &state);
        assert_eq!(v1.body, legacy.body);
        assert!(body_text(&v1).contains("deprecated aliases"));
        // /v1 with an unknown remainder is still a 404, without headers.
        let (endpoint, response) = handle(&get("/v1/nope"), &state);
        assert_eq!(endpoint, Endpoint::Other);
        assert_eq!(response.status, 404);
        assert!(response.headers.is_empty());
        // Ingest + match through the versioned surface.
        let (_, response) = handle(&request("PUT", "/v1/schemas/po", PO.as_bytes()), &state);
        assert_eq!(response.status, 201, "{}", body_text(&response));
        let (endpoint, response) = handle(
            &request("POST", "/v1/match?source=po&target=po", b""),
            &state,
        );
        assert_eq!(endpoint, Endpoint::Match);
        assert_eq!(response.status, 200);
        assert!(response.headers.is_empty());
    }

    #[test]
    fn put_validation_errors() {
        let state = state();
        let bad_name = request("PUT", "/schemas/bad%20name", PO.as_bytes());
        let (_, response) = handle(&bad_name, &state);
        assert_eq!(response.status, 400);
        assert!(body_text(&response).contains("invalid_name"));
        let (_, response) = handle(&request("PUT", "/schemas/po", b""), &state);
        assert_eq!(response.status, 400);
        assert!(body_text(&response).contains("empty_body"));
        let (_, response) = handle(&request("PUT", "/schemas/po", b"<not-a-schema/>"), &state);
        assert_eq!(response.status, 400);
        assert!(body_text(&response).contains("invalid_schema"));
    }

    #[test]
    fn limit_violations_answer_413_with_the_offset() {
        let mut state = state();
        state.limits = IngestLimits {
            max_input_bytes: 16,
            ..IngestLimits::default()
        };
        let (_, response) = handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        assert_eq!(response.status, 413);
        let text = body_text(&response);
        assert!(text.contains("limit_exceeded"), "{text}");
        assert!(text.contains("first offending byte at offset"), "{text}");
        assert_eq!(state.registry.len(), 0);
    }

    #[test]
    fn match_parameter_errors() {
        let state = state();
        handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        let cases = [
            ("/match", 400, "missing_parameter"),
            ("/match?source=po", 400, "missing_parameter"),
            ("/match?source=po&target=nope", 404, "unknown_schema"),
            (
                "/match?source=po&target=po&algo=quantum",
                400,
                "unknown_algo",
            ),
            (
                "/match?source=po&target=po&threshold=2",
                400,
                "bad_threshold",
            ),
            (
                "/match?source=po&target=po&algo=composite&components=psychic",
                400,
                "unknown_component",
            ),
            (
                "/match?source=po&target=po&algo=composite&agg=median",
                400,
                "unknown_aggregation",
            ),
            (
                "/match?source=po&target=po&algo=structural&explain=1",
                400,
                "bad_request",
            ),
            (
                "/match?source=po&target=po&precision=f16",
                400,
                "bad_precision",
            ),
        ];
        for (target, status, kind) in cases {
            let (_, response) = handle(&request("POST", target, b""), &state);
            assert_eq!(response.status, status, "{target}");
            assert!(body_text(&response).contains(kind), "{target}");
        }
    }

    #[test]
    fn precision_param_selects_f32_storage_and_is_echoed() {
        let state = state();
        handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        let (_, default) = handle(&request("POST", "/match?source=po&target=po", b""), &state);
        assert!(body_text(&default).contains(r#""precision":"f64""#));
        let (_, lean) = handle(
            &request("POST", "/match?source=po&target=po&precision=f32", b""),
            &state,
        );
        assert_eq!(lean.status, 200);
        let text = body_text(&lean);
        assert!(text.contains(r#""precision":"f32""#), "{text}");
        // A self-match is exact in either storage width.
        assert!(text.contains(r#""total_qom":1"#), "{text}");
        let (_, topk) = handle(
            &request("POST", "/match/topk?source=po&precision=f32", b""),
            &state,
        );
        assert_eq!(topk.status, 200);
        assert!(body_text(&topk).contains(r#""precision":"f32""#));
    }

    #[test]
    fn explain_adds_explanations_for_accepted_pairs() {
        let state = state();
        handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        let (_, response) = handle(
            &request("POST", "/match?source=po&target=po&explain=1", b""),
            &state,
        );
        assert_eq!(response.status, 200);
        let text = body_text(&response);
        assert!(text.contains(r#""explanations":["#), "{text}");
    }

    #[test]
    fn topk_ranks_and_validates() {
        let state = state();
        let order = PO.replace("\"PO\"", "\"Order\"");
        let book = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Book">
    <xs:complexType><xs:sequence>
      <xs:element name="Title" type="xs:string"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;
        for (name, body) in [("po", PO), ("order", &order), ("book", book)] {
            let (_, response) = handle(
                &request("PUT", &format!("/schemas/{name}"), body.as_bytes()),
                &state,
            );
            assert_eq!(response.status, 201, "{name}");
        }
        let (endpoint, response) =
            handle(&request("POST", "/match/topk?source=po&k=2", b""), &state);
        assert_eq!(endpoint, Endpoint::MatchTopk);
        assert_eq!(response.status, 200);
        let text = body_text(&response);
        let order_pos = text.find(r#""target":"order""#).expect("order ranked");
        let book_pos = text.find(r#""target":"book""#).expect("book ranked");
        assert!(
            order_pos < book_pos,
            "near-identical schema outranks the unrelated one: {text}"
        );
        let (_, response) = handle(&request("POST", "/match/topk?source=ghost", b""), &state);
        assert_eq!(response.status, 404);
        // k=0 and non-numeric k both answer a typed 400 naming the value.
        for target in ["/match/topk?source=po&k=0", "/match/topk?source=po&k=three"] {
            let (_, response) = handle(&request("POST", target, b""), &state);
            assert_eq!(response.status, 400, "{target}");
            let text = body_text(&response);
            assert!(text.contains("bad_k"), "{target}: {text}");
        }
    }

    #[test]
    fn topk_index_param_validates_and_echoes() {
        let state = state();
        handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        // The default policy is auto, echoed in every topk body.
        let (_, response) = handle(&request("POST", "/match/topk?source=po", b""), &state);
        assert_eq!(response.status, 200);
        assert!(body_text(&response).contains(r#""index":"auto""#));
        for policy in ["off", "auto", "force"] {
            let (_, response) = handle(
                &request(
                    "POST",
                    &format!("/match/topk?source=po&index={policy}"),
                    b"",
                ),
                &state,
            );
            assert_eq!(response.status, 200, "{policy}");
            let text = body_text(&response);
            assert!(text.contains(&format!(r#""index":"{policy}""#)), "{text}");
        }
        let (_, response) = handle(
            &request("POST", "/match/topk?source=po&index=banana", b""),
            &state,
        );
        assert_eq!(response.status, 400);
        assert!(body_text(&response).contains("bad_index"));
    }

    #[test]
    fn cupid_and_tree_edit_run_and_echo_their_algo() {
        let state = state();
        handle(&request("PUT", "/schemas/po", PO.as_bytes()), &state);
        let (_, response) = handle(
            &request("POST", "/match?source=po&target=po&algo=cupid", b""),
            &state,
        );
        assert_eq!(response.status, 200, "{}", body_text(&response));
        let text = body_text(&response);
        assert!(text.contains(r#""algo":"cupid""#), "{text}");
        // CUPID's default threshold is its th_accept, not the hybrid 0.78.
        assert!(text.contains(r#""threshold":0.7"#), "{text}");
        assert!(
            !text.contains(r#""category""#),
            "the QoM category is hybrid-only: {text}"
        );
        // A self-match maps every leaf onto itself.
        assert!(text.contains(r#""source_path""#), "{text}");
        let (_, response) = handle(
            &request("POST", "/match?source=po&target=po&algo=tree-edit", b""),
            &state,
        );
        assert_eq!(response.status, 200, "{}", body_text(&response));
        let text = body_text(&response);
        assert!(text.contains(r#""algo":"tree-edit""#), "{text}");
        // The unknown-algo error advertises the full algorithm list.
        let (_, response) = handle(
            &request("POST", "/match?source=po&target=po&algo=qmatchx", b""),
            &state,
        );
        assert_eq!(response.status, 400);
        let text = body_text(&response);
        assert!(text.contains("unknown_algo"), "{text}");
        assert!(text.contains("cupid"), "{text}");
        assert!(text.contains("tree-edit"), "{text}");
    }

    #[test]
    fn topk_algo_param_validates_and_echoes() {
        let state = state();
        let order = PO.replace("\"PO\"", "\"Order\"");
        for (name, body) in [("po", PO), ("order", order.as_str())] {
            handle(
                &request("PUT", &format!("/schemas/{name}"), body.as_bytes()),
                &state,
            );
        }
        let (_, response) = handle(&request("POST", "/match/topk?source=po", b""), &state);
        assert_eq!(response.status, 200);
        assert!(body_text(&response).contains(r#""algo":"hybrid""#));
        let (_, response) = handle(
            &request("POST", "/match/topk?source=po&algo=cupid", b""),
            &state,
        );
        assert_eq!(response.status, 200, "{}", body_text(&response));
        let text = body_text(&response);
        assert!(text.contains(r#""algo":"cupid""#), "{text}");
        assert!(text.contains(r#""target":"order""#), "{text}");
        // Only ranking engines are accepted on topk.
        for bad in ["structural", "banana"] {
            let (_, response) = handle(
                &request("POST", &format!("/match/topk?source=po&algo={bad}"), b""),
                &state,
            );
            assert_eq!(response.status, 400, "{bad}");
            let text = body_text(&response);
            assert!(text.contains("unknown_algo"), "{bad}: {text}");
            assert!(text.contains("hybrid|cupid"), "{bad}: {text}");
        }
    }

    #[test]
    fn metrics_expose_the_wal_live_fraction() {
        // Without persistence the WAL is vacuously all-live.
        let bare = state();
        let (_, response) = handle(&get("/metrics"), &bare);
        assert_eq!(response.status, 200);
        let text = body_text(&response);
        assert!(text.contains("\nqmatch_wal_live_fraction 1\n"), "{text}");
        // With a WAL whose only schema was tombstoned, nothing is live.
        let dir = std::env::temp_dir().join(format!("qmatch-metrics-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (persist, _) = Persist::open(&dir, 1 << 20).unwrap();
        persist.append("po", PO.as_bytes()).unwrap();
        persist.append_tombstone("po").unwrap();
        let mut state = state();
        state.persist = Some(persist);
        let (_, response) = handle(&get("/metrics"), &state);
        let text = body_text(&response);
        assert!(text.contains("\nqmatch_wal_live_fraction 0\n"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_expose_the_ingest_phase_of_puts() {
        let state = state();
        let (_, response) = handle(&get("/v1/metrics"), &state);
        assert!(!body_text(&response).contains("phase=\"ingest\""));
        let (_, response) = handle(&request("PUT", "/v1/schemas/po", PO.as_bytes()), &state);
        assert_eq!(response.status, 201, "{}", body_text(&response));
        // A rejected body is ingest work too.
        let (_, response) = handle(&request("PUT", "/v1/schemas/bad", b"<xs:schema"), &state);
        assert_eq!(response.status, 400);
        let (_, response) = handle(&get("/v1/metrics"), &state);
        let text = body_text(&response);
        assert!(
            text.contains("qmatch_phase_count{phase=\"ingest\"} 2\n"),
            "{text}"
        );
        let bytes = PO.len() + "<xs:schema".len();
        assert!(
            text.contains(&format!(
                "qmatch_phase_cells_total{{phase=\"ingest\"}} {bytes}\n"
            )),
            "{text}"
        );
        assert!(text.contains("qmatch_phase_wall_us_bucket{phase=\"ingest\",le=\"+Inf\"} 2\n"));
    }

    #[test]
    fn forced_index_is_shard_count_invariant_and_matches_exhaustive() {
        let single = state();
        let sharded = state_with(Registry::new(
            (0..4)
                .map(|_| MatchSession::new(MatchConfig::default()))
                .collect(),
            8,
        ));
        // Near-duplicates of the source (index candidates) plus one
        // unrelated schema the prefilter prunes.
        let order = PO.replace("\"PO\"", "\"Order\"");
        let purchase = PO.replace("\"PO\"", "\"Purchase\"");
        let invoice = PO.replace("\"PO\"", "\"Invoice\"");
        let book = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Book">
    <xs:complexType><xs:sequence>
      <xs:element name="Title" type="xs:string"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>"#;
        for (name, body) in [
            ("po", PO),
            ("order", order.as_str()),
            ("purchase", &purchase),
            ("invoice", &invoice),
            ("book", book),
        ] {
            for s in [&single, &sharded] {
                let (_, response) = handle(
                    &request("PUT", &format!("/schemas/{name}"), body.as_bytes()),
                    s,
                );
                assert_eq!(response.status, 201, "{name}");
            }
        }
        // The candidate predicate is pair-local, so the union of per-shard
        // candidate sets equals the single-shard set: indexed rankings are
        // byte-identical across partitionings.
        for target in [
            "/match/topk?source=po&k=5&index=force",
            "/match/topk?source=po&k=2&index=force",
        ] {
            let (_, a) = handle(&request("POST", target, b""), &single);
            let (_, b) = handle(&request("POST", target, b""), &sharded);
            assert_eq!(a.status, 200, "{target}");
            assert_eq!(a.body, b.body, "{target}");
        }
        // The near-duplicates all survive the prefilter, so the forced
        // ranking matches the exhaustive one apart from the echoed policy.
        let (_, off) = handle(
            &request("POST", "/match/topk?source=po&k=3&index=off", b""),
            &single,
        );
        let (_, force) = handle(
            &request("POST", "/match/topk?source=po&k=3&index=force", b""),
            &single,
        );
        assert_eq!(
            body_text(&off).replace(r#""index":"off""#, r#""index":"force""#),
            body_text(&force)
        );
        // The forced queries exercised the shard indexes: candidates were
        // admitted and the unrelated schema was pruned at least once.
        let snapshot = single.registry.snapshot();
        assert!(snapshot.index_candidates > 0, "{snapshot:?}");
        assert!(snapshot.index_filtered > 0, "{snapshot:?}");
    }

    #[test]
    fn sharded_topk_is_byte_identical_to_single_shard() {
        let single = state();
        let sharded = state_with(Registry::new(
            (0..4)
                .map(|_| MatchSession::new(MatchConfig::default()))
                .collect(),
            8,
        ));
        let order = PO.replace("\"PO\"", "\"Order\"");
        let purchase = PO.replace("\"PO\"", "\"Purchase\"");
        for (name, body) in [
            ("po", PO),
            ("order", order.as_str()),
            ("purchase", &purchase),
        ] {
            for s in [&single, &sharded] {
                let (_, response) = handle(
                    &request("PUT", &format!("/schemas/{name}"), body.as_bytes()),
                    s,
                );
                assert_eq!(response.status, 201, "{name}");
            }
        }
        for target in [
            "/match/topk?source=po&k=5",
            "/match/topk?source=po&k=1",
            "/match?source=po&target=order",
        ] {
            let (_, a) = handle(&request("POST", target, b""), &single);
            let (_, b) = handle(&request("POST", target, b""), &sharded);
            assert_eq!(a.body, b.body, "{target}");
        }
        // The same partials merged through the gather heap in any arrival
        // order render identically.
        let plan = validate_topk(
            &request("POST", "/match/topk?source=po&k=5", b""),
            &sharded.registry,
        )
        .expect("valid");
        let mut partials = Vec::new();
        for i in 0..sharded.registry.shard_count() {
            partials.extend(topk_partial(&sharded, i, &plan));
        }
        let forward = topk_render(&plan, partials.clone()).body;
        partials.reverse();
        let reversed = topk_render(&plan, partials).body;
        assert_eq!(forward, reversed, "gather order must not matter");
    }

    #[test]
    fn disposition_routes_by_owner_shard() {
        let state = state_with(Registry::new(
            (0..4)
                .map(|_| MatchSession::new(MatchConfig::default()))
                .collect(),
            8,
        ));
        let registry = &state.registry;
        assert_eq!(disposition(&get("/healthz"), registry), Disposition::Inline);
        assert_eq!(disposition(&get("/metrics"), registry), Disposition::Inline);
        assert_eq!(
            disposition(&request("PUT", "/schemas/po", b"<x/>"), registry),
            Disposition::Shard {
                shard: registry.shard_of("po"),
                endpoint: Endpoint::SchemasPut,
            }
        );
        // The /v1 alias dispatches identically.
        assert_eq!(
            disposition(&request("PUT", "/v1/schemas/po", b"<x/>"), registry),
            disposition(&request("PUT", "/schemas/po", b"<x/>"), registry),
        );
        assert_eq!(
            disposition(
                &request("POST", "/match?source=abc&target=x", b""),
                registry
            ),
            Disposition::Shard {
                shard: registry.shard_of("abc"),
                endpoint: Endpoint::Match,
            }
        );
        assert_eq!(
            disposition(&request("POST", "/match", b""), registry),
            Disposition::Inline,
            "a 400 must not occupy the match queue"
        );
        assert_eq!(
            disposition(&request("POST", "/match/topk?source=abc", b""), registry),
            Disposition::Scatter
        );
        // Wrong-method hits stay inline (they answer 405/404).
        assert_eq!(
            disposition(&request("GET", "/match", b""), registry),
            Disposition::Inline
        );
    }

    #[test]
    fn finalize_marks_only_legacy_recognized_endpoints() {
        let plain = || Response::json(200, "{}".to_owned());
        let legacy = finalize("/healthz", Endpoint::Healthz, plain());
        assert!(legacy.headers.iter().any(|(k, _)| *k == "deprecation"));
        let versioned = finalize("/v1/healthz", Endpoint::Healthz, plain());
        assert!(versioned.headers.is_empty());
        let unknown = finalize("/nope", Endpoint::Other, plain());
        assert!(unknown.headers.is_empty());
    }
}
