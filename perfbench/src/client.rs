//! Server boot and HTTP helpers shared by the serving workloads.

use crate::common::ms_since;
use crate::stats::Scrape;
use gve_net::http::ClientConn;
use gve_serve::json::Json;
use gve_serve::{ServeConfig, Server};
use std::path::Path;
use std::time::{Duration, Instant};

/// Name every serving workload registers its graph under.
pub const GRAPH: &str = "g";

/// Event-loop server config on an ephemeral port with two detection
/// workers, optionally durable under `data_dir` (fsync on, default
/// compaction period).
pub fn config(data_dir: Option<&Path>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        event_loop: true,
        data_dir: data_dir.map(|d| d.display().to_string()),
        ..ServeConfig::default()
    }
}

/// `host:port` of a running server.
pub fn addr(server: &Server) -> String {
    format!("127.0.0.1:{}", server.port())
}

/// One request; any status outside 2xx is an error.
pub fn request_ok(
    conn: &mut ClientConn,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, String> {
    match conn.request(method, path, body) {
        Ok((status, body)) if (200..300).contains(&status) => Ok(body),
        Ok((status, body)) => Err(format!(
            "{method} {path}: status {status}: {}",
            body.chars().take(200).collect::<String>()
        )),
        Err(e) => Err(format!("{method} {path}: {e}")),
    }
}

/// A server that [`boot_and_warm`] brought up.
pub struct Booted {
    pub server: Server,
    /// Milliseconds until the graph was registered (boot + register).
    pub loaded_ms: f64,
    /// Milliseconds until the warm detect finished (the serving
    /// workloads' set-up time).
    pub setup_ms: f64,
    /// Bytes allocated in the process meanwhile.
    pub allocated_bytes: u64,
}

/// Boots a server, registers the graph file at `input` over HTTP, and
/// waits for the default detect to finish.
pub fn boot_and_warm(data_dir: Option<&Path>, input: &Path) -> Result<Booted, String> {
    let before = gve_prim::alloc_count::snapshot();
    let start = Instant::now();
    let server = Server::start(&config(data_dir)).map_err(|e| format!("Server::start: {e}"))?;
    let mut conn = ClientConn::connect(addr(&server)).map_err(|e| format!("connect: {e}"))?;
    let register = Json::obj([
        ("name", Json::from(GRAPH)),
        ("path", Json::from(input.display().to_string())),
    ])
    .render();
    request_ok(&mut conn, "POST", "/graphs", Some(&register))?;
    let loaded_ms = ms_since(start);
    let submitted = request_ok(
        &mut conn,
        "POST",
        &format!("/graphs/{GRAPH}/detect"),
        Some("{}"),
    )?;
    let id = json_u64(&submitted, "id")?;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = request_ok(&mut conn, "GET", &format!("/jobs/{id}"), None)?;
        match json_str(&status, "state")?.as_str() {
            "done" => break,
            "queued" | "running" if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200))
            }
            other => return Err(format!("warm detect ended in state {other}")),
        }
    }
    let setup_ms = ms_since(start);
    Ok(Booted {
        server,
        loaded_ms,
        setup_ms,
        allocated_bytes: gve_prim::alloc_count::snapshot().bytes_since(&before),
    })
}

/// Scrapes `GET /metrics`.
pub fn scrape(conn: &mut ClientConn) -> Result<Scrape, String> {
    request_ok(conn, "GET", "/metrics", None).map(|text| Scrape::parse(&text))
}

/// A top-level unsigned field of a JSON body.
pub fn json_u64(body: &str, field: &str) -> Result<u64, String> {
    gve_serve::json::parse(body)
        .map_err(|e| format!("response body: {e}"))?
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response has no unsigned '{field}'"))
}

/// A top-level string field of a JSON body.
pub fn json_str(body: &str, field: &str) -> Result<String, String> {
    gve_serve::json::parse(body)
        .map_err(|e| format!("response body: {e}"))?
        .get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("response has no string '{field}'"))
}
