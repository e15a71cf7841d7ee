//! The environment stanza every report carries.

use gve_serve::json::Json;
use std::process::{Command, Stdio};

/// Machine, toolchain and load settings a result depends on.
pub struct Environment {
    nproc: usize,
    leiden_threads: usize,
    /// Client connections the benchmark process opens (0 on the
    /// library-only workload).
    pub client_connections: usize,
    git_revision: String,
    rustc: String,
    l2_bytes: Option<u64>,
    l3_bytes: Option<u64>,
    /// Bytes of the workload's resident input (its CSR).
    pub working_set_bytes: u64,
}

impl Environment {
    /// Probes everything but the workload-specific fields.
    pub fn probe(leiden_threads: usize) -> Environment {
        let (l2_bytes, l3_bytes) = cache_sizes();
        Environment {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            leiden_threads,
            client_connections: 0,
            git_revision: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not run from a git checkout)".to_string()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
            l2_bytes,
            l3_bytes,
            working_set_bytes: 0,
        }
    }

    /// The stanza as a JSON object.
    pub fn to_json(&self) -> Json {
        let bytes = |b: Option<u64>| b.map(Json::from).unwrap_or(Json::Null);
        Json::obj([
            ("nproc", Json::from(self.nproc)),
            ("leiden_threads", Json::from(self.leiden_threads)),
            ("client_connections", Json::from(self.client_connections)),
            ("git_revision", Json::from(self.git_revision.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("l2_bytes", bytes(self.l2_bytes)),
            ("l3_bytes", bytes(self.l3_bytes)),
            ("working_set_bytes", Json::from(self.working_set_bytes)),
        ])
    }
}

/// First line of a command's standard output; `None` if it cannot run
/// or fails. The child is always waited for.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_string())
}

/// L2 and L3 data-cache sizes of the executing core from CPUID's
/// deterministic cache parameters (leaf 4 on Intel, 0x8000_001D on
/// AMD), without reading any file.
#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // CPUID intrinsics are `unsafe fn` on older toolchains.
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::{__cpuid, __cpuid_count, CpuidResult};
    // SAFETY: CPUID exists on every x86_64 processor; the leaves read
    // here are bounded by the maximum leaf the processor reports.
    let max_basic = unsafe { __cpuid(0) }.eax;
    // SAFETY: as above.
    let max_extended = unsafe { __cpuid(0x8000_0000) }.eax;
    // SAFETY: leaf 4 is only read when the processor reports it.
    let leaf4_present = max_basic >= 4 && unsafe { __cpuid_count(4, 0) }.eax & 0x1f != 0;
    let leaf = if leaf4_present {
        4
    } else if max_extended >= 0x8000_001D {
        0x8000_001D
    } else {
        return (None, None);
    };
    let mut l2 = None;
    let mut l3 = None;
    for sub in 0..16 {
        // SAFETY: `leaf` is at most the maximum leaf reported above.
        let CpuidResult { eax, ebx, ecx, .. } = unsafe { __cpuid_count(leaf, sub) };
        let kind = eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (eax >> 5) & 0x7;
        let ways = u64::from((ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(ebx & 0xfff) + 1;
        let sets = u64::from(ecx) + 1;
        let size = ways * partitions * line * sets;
        // Kind 1 is a data cache, 3 a unified one.
        if kind == 1 || kind == 3 {
            match level {
                2 => l2 = Some(size),
                3 => l3 = Some(size),
                _ => {}
            }
        }
    }
    (l2, l3)
}

#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}
