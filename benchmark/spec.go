package main

// This file is the benchmark's vocabulary: every metric name, unit,
// direction and regression bound. BENCHMARK.json at the repository root
// repeats the contract subset; TestSpecMatchesBenchmarkJSON keeps the two
// from drifting.

const (
	lower  = "lower"
	higher = "higher"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which the metric may
	// get worse before -compare calls it a regression; 0 means reported,
	// never gated.
	Bound float64
	About string
}

// contractE2E are the end-to-end metrics BENCHMARK.json lists. The driver's
// contract has every workload emit every one of them, so they are named for
// the role a number plays, and each workload fills the role with its own
// measurement (see workloadDefs[..].Project). `_hc` marks a host-corrected
// timing (hostref.go): the duration divided by how much slower than nominal
// the harness's reference probe ran beside it.
var contractE2E = []metricDef{
	{"latency_hc_ms", "ms", lower, 0.25, "median latency of the workload's primary operation, from when it was due, host-corrected"},
	{"throughput_hc_per_s", "1/s", higher, 0.25, "closed-loop work completed per second at the median cycle, host-corrected"},
	{"peak_rss_mb", "MB", lower, 0.25, "VmHWM when the run ends"},
	{"setup_s", "s", lower, 0.25, "median of three full set-ups, each host-corrected: dataset, split, model, index build, stack assembly"},
}

// workloadE2E are the end-to-end metrics by the names the issue gives them,
// each printed by the workloads it is defined on. The gated timings are the
// host-corrected medians; the raw 5th percentiles, medians and p95s are
// reported beside them. -compare gates with these bounds; the contract
// metrics above are projections of some of them.
var workloadE2E = []metricDef{
	{"setup_s", "s", lower, 0.25, "all: set-up before warm-up, median of three, host-corrected"},
	{"setup_raw_s", "s", lower, 0, "same, as the clock read it: reported only"},
	{"recommend_hc_ms", "ms", lower, 0.25, "rec_cold, mixed_online open loop: due → response complete, median, host-corrected"},
	{"recommend_p05_ms", "ms", lower, 0, "same, raw 5th percentile: reported only"},
	{"recommend_p50_ms", "ms", lower, 0, "same, raw median: carries the host's slow state, reported only"},
	{"recommend_p95_ms", "ms", lower, 0, "same, raw p95: reported only"},
	{"recommend_hc_rps", "req/s", higher, 0.25, "rec_cold closed loop; mixed_online closed-loop reads beside the write stream: clients ÷ median host-corrected cycle"},
	{"recommend_rps", "req/s", higher, 0, "same, clients ÷ raw 5th-percentile cycle: reported only"},
	{"recommend_run_rps", "req/s", higher, 0, "same, completions ÷ time over all closed stretches: reported only"},
	{"topk_hc_ms", "ms", lower, 0.25, "topk_warm open loop, median, host-corrected"},
	{"topk_p05_ms", "ms", lower, 0, "reported only"},
	{"topk_p50_ms", "ms", lower, 0, "reported only"},
	{"topk_p95_ms", "ms", lower, 0, "reported only"},
	{"topk_hc_rps", "req/s", higher, 0.25, "topk_warm closed loop, host-corrected"},
	{"topk_rps", "req/s", higher, 0, "reported only"},
	{"topk_run_rps", "req/s", higher, 0, "reported only"},
	{"feedback_ack_hc_ms", "ms", lower, 0.25, "mixed_online: due → 2xx, the event durable under group commit; median, host-corrected"},
	{"feedback_ack_p05_ms", "ms", lower, 0, "reported only"},
	{"feedback_ack_p50_ms", "ms", lower, 0, "same, raw median: mostly the wait behind the trainer and index rebuild; reported only"},
	{"feedback_ack_p95_ms", "ms", lower, 0, "reported only"},
	{"servable_p50_ms", "ms", lower, 0, "mixed_online, per event: due → publish of the first generation trained through it; reported only"},
	{"recover_s", "s", lower, 0.25, "mixed_online: process drop → first 2xx /v1/recommend from state checkpoint + WAL suffix"},
	{"train_hc_inst_per_s", "inst/s", higher, 0.25, "train_offline: training instances per second, median epoch, host-corrected"},
	{"train_inst_per_s", "inst/s", higher, 0, "same, raw, fastest epoch: reported only"},
	{"eval_user_hc_ms", "ms", lower, 0.25, "train_offline: time to rank one held-out positive among J=100, median over chunks, host-corrected"},
	{"eval_user_ms", "ms", lower, 0, "same, raw 5th percentile: reported only"},
	{"eval_inst_per_s", "inst/s", higher, 0, "train_offline: scored (user, candidate) pairs per second, from eval_user_ms; reported only"},
	{"train_hr10", "ratio", higher, 0, "train_offline: HR@10; pinned exactly at the default seed, not a timing"},
	{"peak_rss_mb", "MB", lower, 0.25, "all: VmHWM when the run ends"},
}

type workloadDef struct {
	Name string
	Why  string
	// Gated workloads are the ones BENCHMARK.json lists: the driver rejects a
	// later change that worsens any of their contract metrics. mixed_online
	// is not among them: its acks wait on a virtual disk's fsync, which the
	// host-speed probe does not track, and its reads run beside a trainer and
	// an index rebuild that hold one or both cores in phases (README,
	// "Stability record"). It runs, checks and reports like the others, and
	// -compare judges it.
	Gated bool
	// Project maps each contract metric to the workload metric that fills it.
	Project map[string]string
}

var workloadDefs = []workloadDef{
	{
		Name: "rec_cold", Gated: true,
		Why: "read-only /v1/recommend, a distinct history per request: dynamic-state cache always misses; index search, dynamic precompute and the N=100 candidate kernels all run",
		Project: map[string]string{
			"latency_hc_ms": "recommend_hc_ms", "throughput_hc_per_s": "recommend_hc_rps",
			"peak_rss_mb": "peak_rss_mb", "setup_s": "setup_s",
		},
	},
	{
		Name: "topk_warm", Gated: true,
		Why: "read-only /v1/topk, J=200 caller-supplied candidates over 64 cached contexts: bypasses index and precompute; time is cached per-candidate kernels, merge and large JSON bodies",
		Project: map[string]string{
			"latency_hc_ms": "topk_hc_ms", "throughput_hc_per_s": "topk_hc_rps",
			"peak_rss_mb": "peak_rss_mb", "setup_s": "setup_s",
		},
	},
	{
		Name: "mixed_online",
		Why:  "/v1/feedback stream beside /v1/recommend reads on one primary with WAL group commit and a publishing learner: index is rebuilt not searched, plan runs backward, caches die per generation",
		Project: map[string]string{
			"latency_hc_ms": "feedback_ack_hc_ms", "throughput_hc_per_s": "recommend_hc_rps",
			"peak_rss_mb": "peak_rss_mb", "setup_s": "setup_s",
		},
	},
	{
		Name: "train_offline", Gated: true,
		Why: "train.Ranking (compiled, 2 workers, batch 256, 5 negatives) then train.EvalRanking J=100: batch throughput of plan forward+backward, sampling and optim; no serving layer runs",
		Project: map[string]string{
			"latency_hc_ms": "eval_user_hc_ms", "throughput_hc_per_s": "train_hc_inst_per_s",
			"peak_rss_mb": "peak_rss_mb", "setup_s": "setup_s",
		},
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// perLayer are the traced run's metrics, named <module>.<metric>. Every one
// is measured in every workload's traced run (the contract requires it): the
// layer suite replays a fixed seeded mini-stream of each request kind and
// probes each layer's public entry points, whatever the workload; only the
// bench.* ratios, the cache hit ratios and the response size come from the
// workload's own stream.
var perLayer = []metricDef{
	{"httpapi.recommend_self_us", "us", lower, 0, "handler span minus engine span: decode, admission, encode"},
	{"httpapi.topk_self_us", "us", lower, 0, "same for /v1/topk; large bodies make this the biggest share"},
	{"httpapi.feedback_self_us", "us", lower, 0, "same for /v1/feedback, minus the learner's ingest"},
	{"httpapi.resp_bytes_per_req", "bytes", lower, 0, "mean response body of the workload's own stream"},

	{"serve.admission_wait_us", "us", lower, 0, "Limiter.Acquire + release, uncontended"},
	{"serve.recommend_us", "us", lower, 0, "Engine.RecommendOn, cold history"},
	{"serve.recommend_self_us", "us", lower, 0, "RecommendOn minus retrieval query, search, precompute and candidate kernels: exclusion set, merge, sort"},
	{"serve.topk_us", "us", lower, 0, "Engine.TopKOn, J=200, warm caches"},
	{"serve.topk_self_us", "us", lower, 0, "TopKOn minus the cached candidate kernels"},
	{"serve.swap_us", "us", lower, 0, "Engine.Swap: plan compile + index rebuild + pointer store"},
	{"serve.topk_rps_1core", "req/s", higher, 0, "closed-loop warm /v1/topk at GOMAXPROCS=1; throughput_per_s/(P·this) is scaling efficiency"},
	{"serve.dyn_hit_ratio", "ratio", higher, 0, "dynamic-state cache hits/probes over the workload's own stream (Engine.Stats deltas)"},
	{"serve.static_hit_ratio", "ratio", higher, 0, "static-view cache hits/probes over the workload's own stream"},

	{"index.search_us", "us", lower, 0, "Retriever.Search, n=100 plus exclusion headroom"},
	{"index.retrieved_per_req", "count", higher, 0, "candidates the search returned per request"},
	{"index.build_s", "s", lower, 0, "index.BuildStore + index.New(HNSW) on the served embeddings"},
	{"index.recall_at_100", "ratio", higher, 0, "HNSW top-100 ∩ flat top-100 over 200 queries; must stay ≥ 0.95"},

	{"plan.precompute_dynamic_us", "us", lower, 0, "Exec.PrecomputeDynamic per history"},
	{"plan.score_candidate_ns", "ns", lower, 0, "Exec.ScoreFast, static view computed (cache miss)"},
	{"plan.score_candidate_cached_ns", "ns", lower, 0, "Exec.ScoreFast, static view supplied (cache hit)"},
	{"plan.forward_backward_us_per_inst", "us", lower, 0, "Exec.Forward + Backward over one positive and five negatives"},
	{"plan.candidate_flops", "flop", lower, 0, "computed from core.ModelSpec shapes: one candidate with its static view"},
	{"plan.candidate_bytes", "bytes", lower, 0, "computed: float64 operands one candidate touches"},
	{"plan.dynamic_flops", "flop", lower, 0, "computed: one dynamic precompute"},
	{"plan.candidate_gflops", "Gflop/s", higher, 0, "achieved: candidate_flops / score_candidate_ns"},
	{"plan.dynamic_gflops", "Gflop/s", higher, 0, "achieved: dynamic_flops / precompute_dynamic_us"},
	{"plan.allocs_per_score", "count", lower, 0, "heap allocations per cached ScoreFast, exact"},

	{"core.retrieval_query_us", "us", lower, 0, "Model.RetrievalQuery"},
	{"core.clone_us", "us", lower, 0, "Model.Clone, paid per publish"},

	{"online.ingest_us", "us", lower, 0, "Learner.Ingest, one event, including the group-commit wait"},
	{"online.checkpoint_compact_ms", "ms", lower, 0, "Learner.CheckpointAndCompact"},
	{"online.replay_events_per_s", "1/s", higher, 0, "Learner.ReplayLog over the suite's event log"},
	{"online.replica_catchup_events_per_s", "1/s", higher, 0, "follower Replica.CatchUp over the finished log through an in-process LogSource"},

	{"wal.append_wait_us", "us", lower, 0, "Log.AppendRecord + WaitDurable on a scratch log, one writer"},
	{"wal.fsync_p50_us", "us", lower, 0, "Log.FsyncLatency median over the suite's appends"},
	{"wal.records_per_fsync", "count", higher, 0, "records appended ÷ Fsyncs()"},
	{"wal.bytes_per_event", "bytes", lower, 0, "AppendedBytes ÷ event records"},
	{"wal.open_scan_ms", "ms", lower, 0, "wal.Open on the finished directory"},

	{"train.step_us", "us", lower, 0, "Stepper.Step, 64 events"},
	{"train.sample_negatives_ns", "ns", lower, 0, "NegativeSampler.Sample per negative"},
	{"train.eval_us_per_user", "us", lower, 0, "EvalRanking J=100 per test user"},
	{"optim.step_us_per_batch", "us", lower, 0, "optim.StepShards: merge two shards, one Adam step"},

	{"data.generate_s", "s", lower, 0, "data.GeneratePOI at the serving scale"},
	{"data.split_s", "s", lower, 0, "data.NewSplit"},

	{"ckpt.state_write_ms", "ms", lower, 0, "Learner.CheckpointStateFile"},
	{"ckpt.state_load_ms", "ms", lower, 0, "ckpt.LoadFile of that state checkpoint"},
	{"ckpt.state_bytes", "bytes", lower, 0, "its size"},

	{"obs.stage_retrieve_p50_us", "us", lower, 0, "seqfm_stage_seconds{stage=retrieve} median from a /metrics scrape"},
	{"obs.stage_rerank_p50_us", "us", lower, 0, "seqfm_stage_seconds{stage=rerank} median from the same scrape"},
	{"obs.crosscheck_max_rel_err", "ratio", lower, 0, "worst |scrape − harness span| / span over retrieve and rerank"},
	{"obs.scrape_ms", "ms", lower, 0, "one GET /metrics"},

	{"bench.trace_overhead_ratio", "ratio", lower, 0, "traced root-span p50 ÷ untraced p50 of the workload's primary operation"},
	{"bench.decomposition_gap_ratio", "ratio", lower, 0, "|root − Σ leaf layer spans| / root for the workload's primary operation"},
	{"bench.gc_pause_total_ms", "ms", lower, 0, "GC stop-the-world total over the traced run"},
	{"bench.allocs_per_req", "count", lower, 0, "heap allocations per primary operation over the workload's own stream"},
}
