package harness

// The metric catalog. Names are what later changes cite, so they do not
// change; BENCHMARK.json lists the same names with the same units (a test
// keeps the two in step).

// Spec names one metric, its unit, and which direction is better.
type Spec struct {
	Name, Unit, Better string
}

// EndToEnd is what a user of the system sees, reported by every workload
// from an untraced run. Each is nonzero on every workload.
var EndToEnd = []Spec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// PerLayer is reported by every workload from a traced run. A metric a
// workload never exercises reads 0 there. The first block is the
// workload-specific latency and volume record; the rest are per-layer
// self times (per op unless named otherwise) and counts.
var PerLayer = []Spec{
	{"failed_frac", "ratio", "lower"},
	{"create_p50_ms", "ms", "lower"},
	{"create_p99_ms", "ms", "lower"},
	{"create_cold_p50_ms", "ms", "lower"},
	{"apply_p50_us", "us", "lower"},
	{"apply_p99_us", "us", "lower"},
	{"pause_p50_us", "us", "lower"},
	{"pause_p99_us", "us", "lower"},
	{"subscribe_p50_ms", "ms", "lower"},
	{"subscribe_p90_ms", "ms", "lower"},
	{"recover_p50_ms", "ms", "lower"},
	{"rollout_p50_s", "s", "lower"},
	{"wire_kb_per_machine", "KiB", "lower"},
	{"trace.coverage", "ratio", "higher"},

	{"srctree.patch_ms", "ms", "lower"},
	{"srctree.build_pre_ms", "ms", "lower"},
	{"srctree.build_post_ms", "ms", "lower"},
	{"srctree.build_ms", "ms", "lower"},
	{"srctree.link_ms", "ms", "lower"},
	{"srctree.unit_compiles_per_op", "count", "lower"},
	{"store.unit_hit_frac", "ratio", "higher"},
	{"store.evictions_per_op", "count", "lower"},

	{"core.prepost_ms", "ms", "lower"},
	{"core.tar_encode_ms", "ms", "lower"},
	{"core.update_bytes", "B", "lower"},
	{"core.runpre_us", "us", "lower"},
	{"core.runpre_bytes_per_apply", "B", "lower"},
	{"core.apply_self_us", "us", "lower"},
	{"core.undo_us", "us", "lower"},

	{"kernel.clone_us", "us", "lower"},
	{"kernel.probe_us", "us", "lower"},
	{"kernel.stop_machine_attempts_per_apply", "count", "lower"},
	{"kernel.boot_ms", "ms", "lower"},

	{"vm.stress_ms", "ms", "lower"},
	{"vm.guest_insns_per_op", "count", "lower"},
	{"vm.guest_minsn_per_s", "Minsn/s", "higher"},

	{"channel.new_client_ms", "ms", "lower"},
	{"channel.install_base_ms", "ms", "lower"},
	{"channel.install_self_ms", "ms", "lower"},
	{"channel.bind_ms", "ms", "lower"},
	{"channel.sync_ms", "ms", "lower"},
	{"channel.sync_self_ms", "ms", "lower"},
	{"channel.restore_ms", "ms", "lower"},
	{"channel.transport_ms", "ms", "lower"},
	{"channel.requests_per_op", "count", "lower"},
	{"channel.blobcache_get_ms", "ms", "lower"},
	{"channel.blobcache_put_ms", "ms", "lower"},
	{"channel.blobcache_puts_per_op", "count", "lower"},
	{"channel.durable_writes_per_op", "count", "lower"},
	{"channel.blob_bytes_per_op", "B", "lower"},
	{"channel.tarball_bytes_per_op", "B", "lower"},
	{"channel.delta_applied_per_op", "count", "higher"},
	{"channel.delta_fallback_per_op", "count", "lower"},
	{"channel.journal_replayed_per_recover", "count", "higher"},

	{"fleet.new_ms", "ms", "lower"},
	{"fleet.run_self_ms", "ms", "lower"},
	{"fleet.ring1_ms", "ms", "lower"},
	{"fleet.ring2_ms", "ms", "lower"},
	{"fleet.ring3_ms", "ms", "lower"},
	{"fleet.close_ms", "ms", "lower"},
	{"channel.fleet_health_ms", "ms", "lower"},
	{"channel.server_requests_per_machine", "count", "lower"},

	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
}
