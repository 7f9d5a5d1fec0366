// Command seqfm-serve exposes a SeqFM model as a low-latency HTTP scoring
// service backed by the batched inference engine — and, with -online, as a
// live system: interaction feedback streams in over HTTP, a background
// trainer fine-tunes a shadow model, and fresh weights are hot-swapped into
// the serving path with zero downtime.
//
// On startup it materialises a stand-in dataset, then either loads a
// checkpoint or trains in-process, and serves (handlers in internal/httpapi):
//
//	GET  /healthz         — liveness plus engine statistics
//	POST /v1/score        — {"instances":[{"user":u,"target":o,"hist":[...]}]}
//	                        → {"scores":[...]}
//	POST /v1/topk         — {"user":u,"hist":[...],"candidates":[...],"k":10}
//	                        → {"items":[{"object":o,"score":s}, ...]}
//	POST /v1/recommend    — {"user":u,"hist":[...],"k":10,"n":500}
//	                        → {"items":[...],"generation":g,"retrieved":n}
//	                        (requires -index: full-catalog ANN retrieval +
//	                        exact re-rank; already-seen objects are excluded
//	                        unless "include_seen":true)
//	POST /v1/feedback     — {"user":u,"object":o,"label":1} or {"events":[...]}
//	                        → {"accepted":n,"pending":p}   (requires -online)
//	GET  /v1/model        — serving generation, config, online-trainer and
//	                        retrieval-index counters
//	GET  /v1/experiments  — per-arm online metrics (requires -experiment)
//
// In /v1/topk and /v1/recommend, "hist" defaults to the user's live history
// (dataset log plus every ingested event); /v1/topk's "candidates" defaults
// to every object; item attributes are filled from the dataset's
// side-information tables.
//
// With -index, the catalog index is warm-built at boot (before the listener
// opens) and rebuilt inside every hot swap, so /v1/recommend never serves
// one generation's embeddings against another's weights.
//
// Experimentation: -experiment <baseline> registers a second model from the
// baseline zoo (FM, SASRec, DIN, ...) alongside SeqFM in the same process.
// Requests route to an arm by a sticky hash of the user id; each arm
// accumulates its own latency percentiles, online HR@K (sampled probes
// against the live stream) and swap lag, reported at /v1/experiments.
//
// Admission control: -max-concurrent bounds in-flight requests per endpoint
// class (reads and feedback separately), with a bounded wait queue
// (-admit-queue, -admit-wait). Overload is explicit: a full queue sheds with
// 429, a wait timeout with 503, both carrying Retry-After. Independently,
// /v1/feedback surfaces a full training backlog as 503 + Retry-After rather
// than silently evicting untrained events.
//
// Checkpoints: -save writes the self-describing ckpt v2 format (config +
// weights), which -checkpoint loads with no matching flags needed. Legacy v1
// checkpoints (weights only) require -config-from-flags, acknowledging that
// the model shape comes from -dataset/-scale rather than the file. With
// -online and -snapshot, the fine-tuned model (with optimizer state) is
// written atomically every -snapshot-every, and a v2 -checkpoint warm-starts
// the online trainer from the embedded optimizer state.
//
// Durability and replication: with -online -wal DIR, every ingested event is
// appended to a segmented write-ahead log before it is enqueued (group-commit
// fsync by default; see -wal-sync), and snapshots record their log position.
// On boot the server recovers: torn log tails are truncated, the latest
// -snapshot file (when present) is restored, and the log suffix is replayed
// through the normal ingest path — bit-identical to never having crashed.
// The same log feeds follower replication: GET /v1/replica/snapshot and
// /v1/replica/log, and a replica started with -follow <primary-url>
// bootstraps from the primary's snapshot, tails its log, and serves
// /v1/score, /v1/topk and /v1/recommend read traffic under the primary's
// generation numbering (/v1/feedback is 409 on a follower — replicas are
// read-only). The follower must be started with the same -dataset/-scale/
// -seed/-workers as its primary: replication is deterministic replay, so the
// replica's trainer must derive the same random streams.
//
// Cluster: -wal-compact periodically writes a self-contained state
// checkpoint (-state-snapshot) and discards the WAL segments it covers, so
// the log stays bounded while recovery and follower bootstrap remain exact.
// A follower started with -promote-wal arms POST /v1/replica/promote: on
// promotion it stops tailing, opens a fresh WAL at its applied position + 1
// under a bumped writer epoch, and starts accepting feedback; the deposed
// primary's writes are fenced by epoch comparison everywhere they could
// land. -route turns the process into a stateless consistent-hash proxy
// tier over a -shard-map JSON file: feedback goes to the owning shard's
// primary, reads spread across its followers with primary fallback, and a
// 409 fence triggers one map reload + retry.
//
// Engines and observability: SeqFM is boot-trained, served, fine-tuned and
// replayed on the compiled execution plan — there is no engine to choose, so
// a follower always replays on its primary's engine. /v1/model reports which
// engine the serving generation runs on. GET /metrics serves
// Prometheus text exposition and GET /v1/debug/slow the slow-request
// exemplar ring. -pprof ADDR exposes net/http/pprof on a side listener kept
// off the serving mux (and off its admission control), so profiles stay
// available under load; /metrics is mirrored onto that listener too.
//
// Shutdown is graceful: SIGINT/SIGTERM drains HTTP (http.Server.Shutdown),
// runs a final fine-tune sync, writes a final -snapshot, and flushes the WAL
// before exit.
//
// Usage:
//
//	seqfm-serve -dataset gowalla -scale tiny -addr :8080
//	seqfm-serve -dataset beauty -scale small -epochs 8 -save beauty.ckpt
//	seqfm-serve -dataset beauty -scale small -checkpoint beauty.ckpt
//	seqfm-serve -dataset gowalla -online -snapshot live.ckpt -snapshot-every 30s
//	seqfm-serve -dataset gowalla -online -wal ./wal -snapshot live.ckpt
//	seqfm-serve -dataset gowalla -follow http://primary:8080 -addr :8081
//	seqfm-serve -dataset gowalla -online -wal ./wal -state-snapshot state.ckpt -wal-compact 1m
//	seqfm-serve -dataset gowalla -follow http://primary:8080 -promote-wal ./wal2 -addr :8081
//	seqfm-serve -route -shard-map shards.json -addr :8000
//	seqfm-serve -dataset gowalla -online -experiment FM -max-concurrent 64
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on the -pprof side listener's mux
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"seqfm/internal/ckpt"
	"seqfm/internal/cluster"
	"seqfm/internal/core"
	"seqfm/internal/data"
	"seqfm/internal/experiments"
	"seqfm/internal/httpapi"
	"seqfm/internal/index"
	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/serve"
	"seqfm/internal/train"
	"seqfm/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		dataset     = flag.String("dataset", "gowalla", "gowalla|foursquare|trivago|taobao|beauty|toys")
		scale       = flag.String("scale", "tiny", "tiny|small|medium|full")
		epochs      = flag.Int("epochs", 0, "override training epochs (0 = scale default)")
		seed        = flag.Int64("seed", 7, "master seed")
		checkpoint  = flag.String("checkpoint", "", "load model from this file instead of training (ckpt v2, or v1 with -config-from-flags)")
		cfgFlags    = flag.Bool("config-from-flags", false, "allow loading a legacy v1 checkpoint, taking the model config from -dataset/-scale")
		save        = flag.String("save", "", "write the trained model to this file (ckpt v2)")
		workers     = flag.Int("workers", 0, "engine scoring goroutines (0 = GOMAXPROCS)")
		staticCache = flag.Int("static-cache", 0, "static-view cache entries (0 = default, <0 = off)")
		dynCache    = flag.Int("dyn-cache", 0, "dynamic-state cache entries (0 = default, <0 = off)")
		pprofAddr   = flag.String("pprof", "", "expose net/http/pprof on this side listener address, e.g. localhost:6060 (empty = off)")

		indexOn      = flag.Bool("index", false, "build the full-catalog retrieval index (/v1/recommend)")
		indexBackend = flag.String("index-backend", "hnsw", "retrieval backend: hnsw|flat")
		indexM       = flag.Int("index-m", 0, "HNSW links per node per layer (0 = default)")
		indexEfCons  = flag.Int("index-ef-construction", 0, "HNSW build beam width (0 = default)")
		indexEfSrch  = flag.Int("index-ef-search", 0, "HNSW query beam width (0 = default)")
		indexWorkers = flag.Int("index-build-workers", -1, "index build goroutines for the boot warm-build and every hot-swap rebuild (-1 = GOMAXPROCS, 1 = sequential/deterministic)")
		recallSample = flag.Int("recall-sample", 0, "with -index: every Nth recommend also flat-scans and records observed recall (0 = off)")

		onlineOn     = flag.Bool("online", false, "enable the online-learning subsystem (/v1/feedback, background fine-tune, hot swap)")
		onlineEvery  = flag.Duration("online-interval", 0, "online trainer cadence (0 = default)")
		onlineBatch  = flag.Int("online-batch", 0, "online fine-tune minibatch size (0 = default)")
		onlineLR     = flag.Float64("online-lr", 0, "online fine-tune learning rate (0 = checkpoint's saved rate on warm start, else 1e-3)")
		snapshotPath = flag.String("snapshot", "", "with -online: periodically write the fine-tuned model (ckpt v2) to this path; reloaded on boot for WAL recovery")
		snapshotEvry = flag.Duration("snapshot-every", time.Minute, "snapshot cadence")

		walDir      = flag.String("wal", "", "with -online: durable write-ahead log directory (event durability, replay recovery, replication source)")
		walSync     = flag.String("wal-sync", "group", "WAL fsync policy: group (batched group commit) | each (fsync per event) | none (page cache only)")
		walFlushInt = flag.Duration("wal-flush-interval", 0, "WAL OS-flush cadence under -wal-sync none (0 = default 2ms; group commit pipelines eagerly)")
		walFlushB   = flag.Int("wal-flush-bytes", 0, "WAL inline-flush byte threshold bounding buffer growth (0 = default 256KiB)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "WAL segment rotation size (0 = default 64MiB)")

		follow          = flag.String("follow", "", "follower mode: primary base URL to bootstrap from and tail (read replica)")
		followWait      = flag.Duration("follow-wait", 0, "follower long-poll window per log fetch (0 = default 2s)")
		promoteWAL      = flag.String("promote-wal", "", "with -follow: arm POST /v1/replica/promote — on promotion the follower opens a fresh WAL in this (empty) directory under a bumped epoch")
		promoteSnapshot = flag.String("promote-snapshot", "", "with -promote-wal: where the post-promotion state checkpoint is written (default <promote-wal>/state.ckpt)")

		walCompact    = flag.Duration("wal-compact", 0, "with -wal and -state-snapshot: periodically write a self-contained state checkpoint and discard the WAL segments it covers (0 = off)")
		stateSnapshot = flag.String("state-snapshot", "", "with -wal: self-contained state checkpoint path — written by -wal-compact cycles and preferred at boot for compacted-log recovery")

		route    = flag.Bool("route", false, "router mode: serve a stateless consistent-hash proxy tier over -shard-map instead of a model")
		shardMap = flag.String("shard-map", "", "with -route: JSON shard map file ({\"shards\":[{\"name\":...,\"primary\":...,\"followers\":[...]}]})")

		experiment  = flag.String("experiment", "", "register a baseline zoo member (FM, NFM, AFM, Wide&Deep, DeepCross, SASRec, TFM, DIN, xDeepFM, RRN, HOFM) as a second experiment arm")
		expWeight   = flag.Int("experiment-weight", 1, "baseline arm's traffic weight (seqfm arm has weight 1)")
		expSalt     = flag.Uint64("experiment-salt", 0, "sticky user→arm hash salt (change it to re-randomise the assignment)")
		expHRSample = flag.Int("experiment-hr-sample", 0, "probe online HR@K on every Nth feedback event per arm (0 = default, <0 = off)")

		slowThresh = flag.Duration("slow-threshold", 0, "latency above which a request lands in the /v1/debug/slow exemplar ring (0 = default, <0 = keep every request)")
		alertRules = flag.String("alert-rules", "", "JSON file of declarative alert rules ([{name,metric,labels,op,threshold,sustain_ms,severity},...]); firing critical rules degrade /healthz to 503, reported at /v1/debug/alerts")

		maxConc    = flag.Int("max-concurrent", 0, "admission control: in-flight request bound per endpoint class (0 = off)")
		admitQueue = flag.Int("admit-queue", 0, "admission wait-queue depth beyond -max-concurrent (0 = default, <0 = no queue)")
		admitWait  = flag.Duration("admit-wait", 0, "longest a request may wait for admission before a 503 (0 = default)")

		drainBudget = flag.Duration("shutdown-timeout", 15*time.Second, "graceful HTTP drain budget on SIGINT/SIGTERM")
	)
	flag.Parse()

	// Tuning flags whose primary flag is absent would be silently dropped
	// (the server would boot without the subsystem and 409 the traffic);
	// fail fast instead, like -recall-sample and -snapshot do.
	requireFlag := func(primary string, on bool, names ...string) {
		if on {
			return
		}
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			for _, n := range names {
				if f.Name == n {
					stray = append(stray, "-"+n)
				}
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "seqfm-serve: %s requires %s\n", strings.Join(stray, ", "), primary)
			os.Exit(1)
		}
	}
	requireFlag("-index", *indexOn, "index-backend", "index-m", "index-ef-construction", "index-ef-search", "index-build-workers")
	requireFlag("-wal", *walDir != "", "wal-sync", "wal-flush-interval", "wal-flush-bytes", "wal-segment-bytes", "wal-compact", "state-snapshot")
	requireFlag("-follow", *follow != "", "follow-wait", "promote-wal")
	requireFlag("-promote-wal", *promoteWAL != "", "promote-snapshot")
	requireFlag("-route", *route, "shard-map")
	if *route {
		if *shardMap == "" {
			fmt.Fprintln(os.Stderr, "seqfm-serve: -route requires -shard-map")
			os.Exit(1)
		}
		if *onlineOn || *follow != "" || *indexOn || *checkpoint != "" || *experiment != "" {
			fmt.Fprintln(os.Stderr, "seqfm-serve: -route is a stateless proxy tier; model, online, follower and experiment flags conflict with it")
			os.Exit(1)
		}
	}
	if *walCompact > 0 && *stateSnapshot == "" {
		fmt.Fprintln(os.Stderr, "seqfm-serve: -wal-compact needs -state-snapshot (the checkpoint that makes discarding log segments safe)")
		os.Exit(1)
	}
	requireFlag("-experiment", *experiment != "", "experiment-weight", "experiment-salt", "experiment-hr-sample")
	requireFlag("-max-concurrent", *maxConc > 0, "admit-queue", "admit-wait")
	if *follow != "" {
		// A follower is a read replica driven entirely by its primary's log:
		// local training, durability and checkpointing flags contradict it.
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "online", "online-interval", "online-batch", "online-lr", "snapshot", "snapshot-every", "wal", "checkpoint", "save", "epochs", "experiment":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			fmt.Fprintf(os.Stderr, "seqfm-serve: %s conflicts with -follow (a follower replicates its primary)\n", strings.Join(conflict, ", "))
			os.Exit(1)
		}
	}

	opts := serveOpts{
		addr: *addr, dataset: *dataset, scale: *scale, epochs: *epochs, seed: *seed,
		checkpoint: *checkpoint, configFromFlags: *cfgFlags, save: *save,
		engine: serve.Config{
			Workers:         *workers,
			StaticCacheSize: *staticCache,
			DynCacheSize:    *dynCache,
		},
		pprof: *pprofAddr,
		index: *indexOn, indexBackend: *indexBackend, indexM: *indexM,
		indexEfConstruction: *indexEfCons, indexEfSearch: *indexEfSrch,
		indexBuildWorkers: *indexWorkers, recallSample: *recallSample,
		online: *onlineOn, onlineInterval: *onlineEvery, onlineBatch: *onlineBatch,
		onlineLR: *onlineLR, snapshotPath: *snapshotPath, snapshotEvery: *snapshotEvry,
		walDir: *walDir, walSync: *walSync, walFlushInterval: *walFlushInt,
		walFlushBytes: *walFlushB, walSegmentBytes: *walSegBytes,
		walCompact: *walCompact, stateSnapshot: *stateSnapshot,
		follow: *follow, followWait: *followWait,
		promoteWAL: *promoteWAL, promoteSnapshot: *promoteSnapshot,
		route: *route, shardMap: *shardMap,
		experiment: *experiment, experimentWeight: *expWeight,
		experimentSalt: *expSalt, experimentHRSample: *expHRSample,
		maxConcurrent: *maxConc, admitQueue: *admitQueue, admitWait: *admitWait,
		slowThreshold: *slowThresh, alertRulesPath: *alertRules,
		drainBudget: *drainBudget,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "seqfm-serve:", err)
		os.Exit(1)
	}
}

type serveOpts struct {
	addr, dataset, scale string
	epochs               int
	seed                 int64
	checkpoint, save     string
	configFromFlags      bool
	engine               serve.Config
	index                bool
	indexBackend         string
	indexM               int
	indexEfConstruction  int
	indexEfSearch        int
	indexBuildWorkers    int
	recallSample         int
	online               bool
	onlineInterval       time.Duration
	onlineBatch          int
	onlineLR             float64
	snapshotPath         string
	snapshotEvery        time.Duration

	walDir           string
	walSync          string
	walFlushInterval time.Duration
	walFlushBytes    int
	walSegmentBytes  int64
	walCompact       time.Duration
	stateSnapshot    string

	follow          string
	followWait      time.Duration
	promoteWAL      string
	promoteSnapshot string

	route    bool
	shardMap string

	experiment         string
	experimentWeight   int
	experimentSalt     uint64
	experimentHRSample int

	maxConcurrent int
	admitQueue    int
	admitWait     time.Duration

	slowThreshold  time.Duration
	alertRulesPath string

	pprof       string
	drainBudget time.Duration
}

// alertRules loads -alert-rules, nil without the flag.
func (o serveOpts) alertRules() ([]obs.Rule, error) {
	if o.alertRulesPath == "" {
		return nil, nil
	}
	rules, err := obs.LoadRulesFile(o.alertRulesPath)
	if err != nil {
		return nil, fmt.Errorf("-alert-rules: %w", err)
	}
	log.Printf("alert rules: %d loaded from %s (evaluated on /healthz and /v1/debug/alerts reads)", len(rules), o.alertRulesPath)
	return rules, nil
}

// admission translates the flags into the two endpoint-class configs, nil
// when admission control is off.
func (o serveOpts) admission() (read, feedback *serve.AdmissionConfig) {
	if o.maxConcurrent <= 0 {
		return nil, nil
	}
	cfg := serve.AdmissionConfig{
		MaxConcurrent: o.maxConcurrent,
		MaxQueue:      o.admitQueue,
		MaxWait:       o.admitWait,
	}
	r, f := cfg, cfg
	return &r, &f
}

// buildExperiments registers the baseline arm next to the primary engine.
// The returned engine (the baseline's) must be closed by the caller.
func buildExperiments(o serveOpts, p experiments.Params, ds *data.Dataset, eng *serve.Engine) (*serve.Experiments, *serve.Engine, error) {
	bm, err := p.BaselineModel(ds.Space(), o.experiment)
	if err != nil {
		return nil, nil, err
	}
	// The baseline arm gets a plain engine: no retrieval index (the tier's
	// sampled fallback answers /v1/recommend) and no SeqFM fast-path caches,
	// but the same worker pool shape for a fair latency comparison.
	baseEng := serve.NewEngine(bm, serve.Config{Workers: o.engine.Workers})
	var attrOf func(int) int
	if ds.NumItemAttrs > 0 {
		attrOf = func(obj int) int { return ds.ItemAttr[obj] }
	}
	exp, err := serve.NewExperiments(
		[]serve.ExperimentArm{
			{Name: "seqfm", Engine: eng, Weight: 1},
			{Name: o.experiment, Engine: baseEng, Weight: o.experimentWeight},
		},
		serve.ExperimentsConfig{
			Salt:          o.experimentSalt,
			HRSampleEvery: o.experimentHRSample,
			NumObjects:    ds.NumObjects,
			AttrOf:        attrOf,
		},
	)
	if err != nil {
		baseEng.Close()
		return nil, nil, err
	}
	return exp, baseEng, nil
}

func run(o serveOpts) error {
	if o.route {
		return runRouter(o)
	}
	if o.follow != "" {
		return runFollower(o)
	}
	// Reject inconsistent flags before any expensive work (dataset build,
	// in-process training) is thrown away on them.
	if o.snapshotPath != "" && !o.online {
		return fmt.Errorf("-snapshot requires -online")
	}
	if o.walDir != "" && !o.online {
		return fmt.Errorf("-wal requires -online (the log records the online event stream)")
	}
	var backend index.Backend
	if o.index {
		var err error
		if backend, err = index.ParseBackend(o.indexBackend); err != nil {
			return err
		}
		if o.recallSample > 0 && backend == index.BackendFlat {
			return fmt.Errorf("-recall-sample is meaningless with -index-backend flat: the flat scan is exact (recall is identically 1)")
		}
	} else if o.recallSample > 0 {
		return fmt.Errorf("-recall-sample requires -index")
	}
	p := experiments.ParamsFor(experiments.Scale(o.scale))
	p.Seed = o.seed
	if o.epochs > 0 {
		p.Epochs = o.epochs
	}
	ds, err := buildDataset(p, o.dataset)
	if err != nil {
		return err
	}

	// Open (and recover) the WAL before deciding where the model comes
	// from: with durability on, the freshest state is the -snapshot file
	// plus the log suffix beyond it, and that pair wins over -checkpoint
	// and over re-training.
	var walLog *wal.Log
	if o.walDir != "" {
		policy, err := wal.ParsePolicy(o.walSync)
		if err != nil {
			return err
		}
		walLog, err = wal.Open(o.walDir, wal.Options{
			SegmentBytes:  o.walSegmentBytes,
			Policy:        policy,
			FlushInterval: o.walFlushInterval,
			FlushBytes:    o.walFlushBytes,
		})
		if err != nil {
			return err
		}
		defer walLog.Close()
		rec := walLog.Recovered()
		if walLog.Truncated() {
			log.Printf("WAL %s: torn tail truncated; recovered through seq %d (segment %d offset %d)",
				o.walDir, rec.Seq, rec.Segment, rec.Offset)
		} else {
			log.Printf("WAL %s: clean; %d records across %d segment(s)", o.walDir, rec.Seq, walLog.Segments())
		}
	}
	checkpointPath := o.checkpoint
	if walLog != nil && o.snapshotPath != "" {
		if _, statErr := os.Stat(o.snapshotPath); statErr == nil {
			checkpointPath = o.snapshotPath
			log.Printf("recovery: restoring snapshot %s (overrides -checkpoint/-epochs for the base weights)", o.snapshotPath)
		}
	}
	if walLog != nil && o.stateSnapshot != "" {
		// The state snapshot outranks the plain one: once -wal-compact has
		// discarded log segments, it is the only artifact that still covers
		// the compacted prefix.
		if _, statErr := os.Stat(o.stateSnapshot); statErr == nil {
			checkpointPath = o.stateSnapshot
			log.Printf("recovery: restoring state snapshot %s (self-contained through its cut; replay covers only the log suffix)", o.stateSnapshot)
		} else if walLog.FirstSeq() > 1 {
			return fmt.Errorf("WAL %s is compacted (first surviving seq %d) but -state-snapshot %s does not exist: the discarded prefix is unrecoverable without it",
				o.walDir, walLog.FirstSeq(), o.stateSnapshot)
		}
	}

	var model *core.Model
	var snapshot *ckpt.File // non-nil when the checkpoint was ckpt v2
	if checkpointPath != "" {
		model, snapshot, err = loadCheckpoint(checkpointPath, o.configFromFlags, p, ds)
		if err != nil {
			return err
		}
	} else {
		if model, err = p.SeqFM(ds.Space(), core.Ablation{}); err != nil {
			return err
		}
		split := data.NewSplit(ds)
		cfg := p.TrainConfig()
		if ds.Task == data.Regression {
			cfg = p.RegressionTrainConfig()
		}
		cfg.Logf = log.Printf
		log.Printf("training seqfm on %s (%d train instances)", ds.Name, len(split.Train))
		hist, err := trainFor(model, split, cfg, ds.Task)
		if err != nil {
			return err
		}
		log.Printf("trained in %.1fs (final loss %.4f)", hist.Total.Seconds(), hist.FinalLoss())
	}
	if o.save != "" {
		if err := ckpt.SaveFile(o.save, model, nil, 0); err != nil {
			return fmt.Errorf("save %s: %w", o.save, err)
		}
		log.Printf("saved checkpoint %s (ckpt v2)", o.save)
	}

	if o.index {
		o.engine.Index = &serve.IndexConfig{
			Objects: ds.Objects(),
			Backend: backend,
			ANN: index.Config{
				M:              o.indexM,
				EfConstruction: o.indexEfConstruction,
				EfSearch:       o.indexEfSearch,
				Seed:           o.seed,
				BuildWorkers:   o.indexBuildWorkers,
			},
			RecallSampleEvery: o.recallSample,
		}
	}
	// NewEngine warm-builds generation 1's catalog index before the
	// listener opens: the first /v1/recommend never pays the build.
	eng := serve.NewEngine(model, o.engine)
	defer eng.Close()
	if o.index {
		st := eng.Stats()
		log.Printf("catalog index warm-built: backend=%s items=%d build=%.1fms",
			st.IndexBackend, st.IndexSize, float64(st.IndexBuildNanos)/1e6)
	}

	var learner *online.Learner
	if o.online {
		ocfg := online.Config{
			Train: train.Config{
				Seed:      o.seed,
				LR:        o.onlineLR,
				Workers:   o.engine.Workers,
				Negatives: p.Negatives,
			},
			BatchSize: o.onlineBatch,
			Interval:  o.onlineInterval,
			Log:       walLog,
		}
		if snapshot != nil {
			// Warm-start fine-tuning from the embedded optimizer state and
			// step counter of the already-decoded checkpoint.
			learner, err = online.NewLearnerFromSnapshot(model, snapshot, ds, eng, ocfg)
			if err != nil {
				return fmt.Errorf("warm-start from %s: %w", checkpointPath, err)
			}
			log.Printf("online trainer warm-started from %s", checkpointPath)
		} else {
			if learner, err = online.NewLearner(model, ds, eng, ocfg); err != nil {
				return err
			}
		}
		if walLog != nil {
			// Replay the log (the suffix beyond the snapshot re-trains; the
			// prefix rebuilds histories and sampling state) before the
			// trainer or the listener starts: recovery is single-threaded
			// by contract.
			start := time.Now()
			rst, err := learner.ReplayLog()
			if err != nil {
				return fmt.Errorf("wal replay: %w", err)
			}
			log.Printf("WAL replay: %d records (%d events, %d steps re-trained, %d covered by snapshot, %d drops) in %.1fms → generation %d",
				rst.Records, rst.Events, rst.Steps, rst.SkippedSteps, rst.Drops,
				float64(time.Since(start).Microseconds())/1000, eng.Generation())
		}
		learner.Start()
		defer learner.Close()
		lcfg := learner.Config() // resolved, not the raw flags
		log.Printf("online learning enabled (batch=%d, interval=%s, lr=%g, wal=%v)",
			lcfg.BatchSize, lcfg.Interval, learner.LR(), walLog != nil)
	}
	stopCompactor := func() {}
	if o.walCompact > 0 {
		if learner == nil || walLog == nil {
			return fmt.Errorf("-wal-compact requires -online and -wal")
		}
		stopCompactor = cluster.StartCompactor(learner, cluster.CompactionConfig{
			Path:     o.stateSnapshot,
			Interval: o.walCompact,
			Logf:     log.Printf,
		})
		log.Printf("WAL compactor: state checkpoint to %s every %s, covered segments discarded", o.stateSnapshot, o.walCompact)
	}

	var exp *serve.Experiments
	if o.experiment != "" {
		var baseEng *serve.Engine
		exp, baseEng, err = buildExperiments(o, p, ds, eng)
		if err != nil {
			return err
		}
		defer baseEng.Close()
		log.Printf("experiment: seqfm vs %s (weight 1:%d, salt %d) at /v1/experiments",
			o.experiment, o.experimentWeight, o.experimentSalt)
	}

	readAdm, feedbackAdm := o.admission()
	if readAdm != nil {
		log.Printf("admission control: max-concurrent=%d queue=%d wait=%s per endpoint class",
			o.maxConcurrent, o.admitQueue, o.admitWait)
	}
	rules, err := o.alertRules()
	if err != nil {
		return err
	}
	srv, err := httpapi.New(httpapi.Config{
		Engine: eng, Dataset: ds, Model: model,
		Learner: learner, WAL: walLog,
		Experiments:       exp,
		ReadAdmission:     readAdm,
		FeedbackAdmission: feedbackAdm,
		SlowThreshold:     o.slowThreshold,
		Rules:             rules,
	})
	if err != nil {
		return err
	}
	return serveUntilSignal(o, srv, ds, func(ctx context.Context) {
		if learner == nil {
			return
		}
		if o.snapshotPath != "" {
			go snapshotLoop(ctx, learner, o.snapshotPath, o.snapshotEvery)
		}
	}, func() {
		// Ordered teardown once HTTP has drained: stop the compactor, stop
		// the trainer and flush its backlog, persist the final state, then
		// seal the log.
		stopCompactor()
		if learner != nil {
			learner.Close()
			if o.snapshotPath != "" {
				if err := learner.CheckpointFile(o.snapshotPath); err != nil {
					log.Printf("final snapshot %s: %v", o.snapshotPath, err)
				} else {
					log.Printf("final snapshot written to %s", o.snapshotPath)
				}
			}
		}
		if walLog != nil {
			if err := walLog.Close(); err != nil {
				log.Printf("wal close: %v", err)
			}
		}
	})
}

// runFollower is -follow: bootstrap a read replica from a primary's snapshot
// endpoint, tail its log, and serve read traffic under the primary's
// generation numbering.
func runFollower(o serveOpts) error {
	var backend index.Backend
	if o.index {
		var err error
		if backend, err = index.ParseBackend(o.indexBackend); err != nil {
			return err
		}
	}
	p := experiments.ParamsFor(experiments.Scale(o.scale))
	p.Seed = o.seed
	ds, err := buildDataset(p, o.dataset)
	if err != nil {
		return err
	}
	log.Printf("follower: bootstrapping from %s", o.follow)
	model, file, bootGen, err := online.FetchSnapshot(o.follow, nil)
	if err != nil {
		return err
	}
	if model.Config().Space != ds.Space() {
		return fmt.Errorf("primary snapshot space %+v does not match local dataset %s space %+v (start the follower with the primary's -dataset/-scale)",
			model.Config().Space, ds.Name, ds.Space())
	}
	if o.index {
		o.engine.Index = &serve.IndexConfig{
			Objects: ds.Objects(),
			Backend: backend,
			ANN: index.Config{
				M:              o.indexM,
				EfConstruction: o.indexEfConstruction,
				EfSearch:       o.indexEfSearch,
				Seed:           o.seed,
				BuildWorkers:   o.indexBuildWorkers,
			},
			RecallSampleEvery: o.recallSample,
		}
	}
	eng := serve.NewEngine(model, o.engine)
	defer eng.Close()
	// The replica's stepper must derive the primary's random streams: same
	// seed, same worker count — replication is deterministic replay.
	learner, err := online.NewLearnerFromSnapshot(model, file, ds, eng, online.Config{
		Train: train.Config{
			Seed:      o.seed,
			Workers:   o.engine.Workers,
			Negatives: p.Negatives,
		},
	})
	if err != nil {
		return err
	}
	rep := online.NewReplica(learner, &online.HTTPLogSource{Base: o.follow}, bootGen, online.ReplicaConfig{Wait: o.followWait, Logf: log.Printf})
	start := time.Now()
	applied, err := rep.CatchUp()
	if err != nil {
		return fmt.Errorf("initial catch-up: %w", err)
	}
	log.Printf("follower: caught up (%d records in %.1fms) at generation %d",
		applied, float64(time.Since(start).Microseconds())/1000, eng.Generation())
	rep.Start()

	readAdm, feedbackAdm := o.admission()
	rules, err := o.alertRules()
	if err != nil {
		return err
	}
	var promote func() (httpapi.PromoteInfo, error)
	if o.promoteWAL != "" {
		snapPath := o.promoteSnapshot
		if snapPath == "" {
			snapPath = filepath.Join(o.promoteWAL, "state.ckpt")
		}
		promote = func() (httpapi.PromoteInfo, error) {
			res, err := cluster.Promote(cluster.Promotion{
				Replica:      rep,
				Learner:      learner,
				WALDir:       o.promoteWAL,
				SnapshotPath: snapPath,
				Logf:         log.Printf,
			})
			if err != nil {
				return httpapi.PromoteInfo{}, err
			}
			return httpapi.PromoteInfo{
				Epoch:      uint64(res.Epoch),
				AppliedSeq: res.AppliedSeq,
				Generation: res.Generation,
				WALDir:     res.WALDir,
			}, nil
		}
		log.Printf("promotion armed: POST /v1/replica/promote opens a fresh WAL in %s (state checkpoint %s)", o.promoteWAL, snapPath)
	}
	srv, err := httpapi.New(httpapi.Config{
		Engine: eng, Dataset: ds, Model: model,
		Learner: learner, Replica: rep, Primary: o.follow,
		Promote:           promote,
		ReadAdmission:     readAdm,
		FeedbackAdmission: feedbackAdm,
		SlowThreshold:     o.slowThreshold,
		Rules:             rules,
	})
	if err != nil {
		return err
	}
	return serveUntilSignal(o, srv, ds, nil, func() {
		rep.Close() // no-op when a promotion already stopped the tail loop
		if wlog := learner.WAL(); wlog != nil {
			// Promoted mid-run: the learner now owns a trainer and a log of
			// its own; tear them down like a primary's.
			learner.Close()
			if err := wlog.Close(); err != nil {
				log.Printf("promoted wal close: %v", err)
			}
		}
	})
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM, then drains
// in-flight requests (bounded by -shutdown-timeout) and runs the ordered
// teardown. onServe, when non-nil, starts signal-scoped background loops.
func serveUntilSignal(o serveOpts, srv *httpapi.Server, ds *data.Dataset, onServe func(ctx context.Context), teardown func()) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if onServe != nil {
		onServe(ctx)
	}
	if o.pprof != "" {
		// Side listener on the default mux, where the blank net/http/pprof
		// import registers its handlers — separate from the serving mux so
		// profiling stays reachable when the API is saturated or shedding.
		// /metrics is mirrored here for the same reason: a scrape must not
		// compete with (or be shed by) serving-path admission control.
		http.Handle("GET /metrics", srv.MetricsHandler())
		go func() {
			log.Printf("pprof listening on %s", o.pprof)
			if err := http.ListenAndServe(o.pprof, nil); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Routes()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	role := "primary"
	if o.follow != "" {
		role = "follower of " + o.follow
	}
	log.Printf("serving %s (%d users, %d objects) on %s [%s]", ds.Name, ds.NumUsers, ds.NumObjects, o.addr, role)
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C force-kills
	log.Printf("shutdown: draining HTTP (budget %s)", o.drainBudget)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainBudget)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: drain incomplete: %v", err)
	}
	teardown()
	log.Printf("shutdown complete")
	return nil
}

// loadCheckpoint opens path and dispatches on the sniffed format: v2 files
// are self-describing (and must match the dataset's feature space) and
// return their decoded ckpt.File for optimizer warm-starts; legacy v1 files
// carry only weights, so the model is built from the flag-derived config —
// an implicit dependency the operator must acknowledge with
// -config-from-flags — and the returned file is nil.
func loadCheckpoint(path string, configFromFlags bool, p experiments.Params, ds *data.Dataset) (*core.Model, *ckpt.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	switch ckpt.DetectVersion(r) {
	case ckpt.V2:
		m, file, err := ckpt.Load(r)
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", path, err)
		}
		if m.Config().Space != ds.Space() {
			return nil, nil, fmt.Errorf("load %s: checkpoint space %+v does not match dataset %s space %+v",
				path, m.Config().Space, ds.Name, ds.Space())
		}
		log.Printf("loaded checkpoint %s (ckpt v2: config embedded)", path)
		return m, file, nil
	case ckpt.V1:
		if !configFromFlags {
			return nil, nil, fmt.Errorf(
				"%s is a legacy v1 checkpoint with no embedded config; pass -config-from-flags to build the model from -dataset/-scale (and re-save it as v2 with -save)", path)
		}
		m, err := p.SeqFM(ds.Space(), core.Ablation{})
		if err != nil {
			return nil, nil, err
		}
		if err := m.Load(r); err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", path, err)
		}
		log.Printf("WARNING: loaded legacy v1 checkpoint %s with config from flags (-dataset %s -scale config); mismatched flags would have been rejected only by shape, not by intent — re-save as v2",
			path, ds.Name)
		return m, nil, nil
	default:
		return nil, nil, fmt.Errorf("%s is not a seqfm checkpoint", path)
	}
}

// snapshotLoop periodically writes the fine-tuned model to disk (atomically:
// temp file + rename), so a restart can warm-start from recent weights. It
// exits with the signal context; shutdown writes one final snapshot itself.
func snapshotLoop(ctx context.Context, l *online.Learner, path string, every time.Duration) {
	if every <= 0 {
		every = time.Minute
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if err := l.CheckpointFile(path); err != nil {
			log.Printf("snapshot %s: %v", path, err)
		} else {
			log.Printf("snapshot written to %s", path)
		}
	}
}

func trainFor(m train.Model, split *data.Split, cfg train.Config, task data.Task) (*train.History, error) {
	switch task {
	case data.Ranking:
		return train.Ranking(m, split, cfg)
	case data.Classification:
		return train.Classification(m, split, cfg)
	default:
		return train.Regression(m, split, cfg)
	}
}

func buildDataset(p experiments.Params, name string) (*data.Dataset, error) {
	switch name {
	case "gowalla":
		g, _, err := p.RankingDatasets()
		return g, err
	case "foursquare":
		_, f, err := p.RankingDatasets()
		return f, err
	case "trivago":
		tv, _, err := p.CTRDatasets()
		return tv, err
	case "taobao":
		_, tb, err := p.CTRDatasets()
		return tb, err
	case "beauty":
		be, _, err := p.RatingDatasets()
		return be, err
	case "toys":
		_, to, err := p.RatingDatasets()
		return to, err
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}
