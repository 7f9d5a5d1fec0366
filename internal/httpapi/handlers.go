package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"seqfm/internal/feature"
	"seqfm/internal/obs"
	"seqfm/internal/online"
	"seqfm/internal/serve"
)

// jsonInstance is the wire form of feature.Instance. Attr fields are
// pointers so "absent" is distinguishable from attribute 0; absent attrs
// fall back to the dataset's side-information tables.
type jsonInstance struct {
	User       int   `json:"user"`
	Target     int   `json:"target"`
	Hist       []int `json:"hist"`
	UserAttr   *int  `json:"user_attr,omitempty"`
	TargetAttr *int  `json:"target_attr,omitempty"`
}

func (s *Server) toInstance(j jsonInstance) (feature.Instance, error) {
	if j.User < 0 || j.User >= s.ds.NumUsers {
		return feature.Instance{}, fmt.Errorf("user %d outside [0,%d)", j.User, s.ds.NumUsers)
	}
	if j.Target < 0 || j.Target >= s.ds.NumObjects {
		return feature.Instance{}, fmt.Errorf("target %d outside [0,%d)", j.Target, s.ds.NumObjects)
	}
	for _, h := range j.Hist {
		if h < 0 || h >= s.ds.NumObjects {
			return feature.Instance{}, fmt.Errorf("hist object %d outside [0,%d)", h, s.ds.NumObjects)
		}
	}
	inst := feature.Instance{
		User: j.User, Target: j.Target, Hist: j.Hist,
		UserAttr: feature.Pad, TargetAttr: feature.Pad,
	}
	if s.ds.NumUserAttrs > 0 {
		inst.UserAttr = s.ds.UserAttr[j.User]
	}
	if j.UserAttr != nil {
		if *j.UserAttr < 0 || *j.UserAttr >= s.ds.NumUserAttrs {
			return feature.Instance{}, fmt.Errorf("user_attr %d outside [0,%d)", *j.UserAttr, s.ds.NumUserAttrs)
		}
		inst.UserAttr = *j.UserAttr
	}
	if s.ds.NumItemAttrs > 0 {
		inst.TargetAttr = s.ds.ItemAttr[j.Target]
	}
	if j.TargetAttr != nil {
		if *j.TargetAttr < 0 || *j.TargetAttr >= s.ds.NumItemAttrs {
			return feature.Instance{}, fmt.Errorf("target_attr %d outside [0,%d)", *j.TargetAttr, s.ds.NumItemAttrs)
		}
		inst.TargetAttr = *j.TargetAttr
	}
	return inst, nil
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Instances []jsonInstance `json:"instances"`
	}
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	insts := make([]feature.Instance, len(req.Instances))
	for i, j := range req.Instances {
		inst, err := s.toInstance(j)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("instance %d: %w", i, err))
			return
		}
		insts[i] = inst
	}
	started := time.Now()
	resp := map[string]any{}
	if s.exp != nil && len(insts) > 0 {
		// The whole batch routes by the first instance's user — one arm per
		// response, or the scores would come from different models.
		scores, gen, arm := s.exp.ScoreBatch(insts[0].User, insts)
		resp["scores"] = scores
		resp["generation"] = gen
		resp["arm"] = s.exp.ArmName(arm)
	} else {
		resp["scores"] = s.eng.ScoreBatch(insts)
	}
	resp["elapsed_ms"] = float64(time.Since(started).Microseconds()) / 1000
	writeJSON(w, resp)
}

// liveHistory resolves a user's default history: the online store when the
// learner runs (dataset log plus every ingested event), else the frozen log.
func (s *Server) liveHistory(user int) []int {
	if s.learner != nil {
		return s.learner.History(user)
	}
	var hist []int
	for _, it := range s.ds.Users[user] {
		hist = append(hist, it.Object)
	}
	return hist
}

// baseInstance validates a request's user context and builds the base
// instance /v1/topk and /v1/recommend share: hist nil defaults to the live
// history, user attributes are filled from the side-information tables.
func (s *Server) baseInstance(user int, hist []int) (feature.Instance, error) {
	if user < 0 || user >= s.ds.NumUsers {
		return feature.Instance{}, fmt.Errorf("user %d outside [0,%d)", user, s.ds.NumUsers)
	}
	if hist == nil {
		hist = s.liveHistory(user)
	}
	for _, h := range hist {
		if h < 0 || h >= s.ds.NumObjects {
			return feature.Instance{}, fmt.Errorf("hist object %d outside [0,%d)", h, s.ds.NumObjects)
		}
	}
	base := feature.Instance{User: user, Hist: hist, UserAttr: feature.Pad, TargetAttr: feature.Pad}
	if s.ds.NumUserAttrs > 0 {
		base.UserAttr = s.ds.UserAttr[user]
	}
	return base, nil
}

// attrOf returns the candidate→TargetAttr mapping for ranking requests, or
// nil when the dataset carries no item side information.
func (s *Server) attrOf() func(int) int {
	if s.ds.NumItemAttrs == 0 {
		return nil
	}
	return func(o int) int { return s.ds.ItemAttr[o] }
}

// jsonItem is the wire form of one ranked candidate.
type jsonItem struct {
	Object int     `json:"object"`
	Score  float64 `json:"score"`
}

func toJSONItems(items []serve.Item) []jsonItem {
	out := make([]jsonItem, len(items))
	for i, it := range items {
		out[i] = jsonItem{Object: it.Object, Score: it.Score}
	}
	return out
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User       int   `json:"user"`
		Hist       []int `json:"hist"`
		Candidates []int `json:"candidates"`
		K          int   `json:"k"`
	}
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	base, err := s.baseInstance(req.User, req.Hist)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	candidates := req.Candidates
	if candidates == nil {
		candidates = s.ds.Objects()
	}
	for _, c := range candidates {
		if c < 0 || c >= s.ds.NumObjects {
			httpError(w, http.StatusBadRequest, fmt.Errorf("candidate %d outside [0,%d)", c, s.ds.NumObjects))
			return
		}
	}
	started := time.Now()
	treq := serve.TopKRequest{Base: base, Candidates: candidates, K: req.K, AttrOf: s.attrOf()}
	resp := map[string]any{}
	var items []serve.Item
	var gen uint64
	if s.exp != nil {
		var arm int
		items, gen, arm = s.exp.TopKCtx(r.Context(), treq)
		resp["arm"] = s.exp.ArmName(arm)
	} else {
		items, gen = s.eng.TopKOnCtx(r.Context(), treq)
	}
	resp["items"] = toJSONItems(items)
	resp["generation"] = gen
	resp["elapsed_ms"] = float64(time.Since(started).Microseconds()) / 1000
	writeJSON(w, resp)
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		User        int   `json:"user"`
		Hist        []int `json:"hist"`
		K           int   `json:"k"`
		N           int   `json:"n"`
		IncludeSeen bool  `json:"include_seen"`
		Exclude     []int `json:"exclude"`
	}
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	base, err := s.baseInstance(req.User, req.Hist)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for _, o := range req.Exclude {
		if o < 0 || o >= s.ds.NumObjects {
			httpError(w, http.StatusBadRequest, fmt.Errorf("exclude object %d outside [0,%d)", o, s.ds.NumObjects))
			return
		}
	}
	rreq := serve.RecommendRequest{
		Base: base, K: req.K, N: req.N,
		IncludeSeen: req.IncludeSeen, Exclude: req.Exclude,
		AttrOf: s.attrOf(),
	}
	if s.learner != nil && !req.IncludeSeen {
		// The online store bounds the live history (a dynamic-view bound,
		// not an exclusion bound); long-history users have interactions
		// older than it. The learner's seen index never forgets, so the
		// exclusion contract stays identical with and without -online —
		// consulted as a predicate, never materialised per request.
		user := req.User
		rreq.ExcludeFunc = func(o int) bool { return s.learner.Seen(user, o) }
		rreq.ExcludeHint = s.learner.SeenCount(user)
	}
	resp := map[string]any{}
	var res serve.RecommendResult
	if s.exp != nil {
		var arm int
		res, arm, err = s.exp.RecommendCtx(r.Context(), rreq)
		if err == nil {
			resp["arm"] = s.exp.ArmName(arm)
		}
	} else {
		res, err = s.eng.RecommendOnCtx(r.Context(), rreq)
	}
	if err != nil {
		httpError(w, http.StatusConflict, fmt.Errorf("retrieval disabled: %w (restart with -index)", err))
		return
	}
	resp["items"] = toJSONItems(res.Items)
	resp["generation"] = res.Generation
	resp["index_generation"] = res.IndexGeneration
	resp["retrieved"] = res.Retrieved
	// The engine's own measurement, net of recall-canary overhead —
	// consistent with /v1/model's avg_recommend_ms, so latency monitors
	// don't alarm on sampled requests.
	resp["elapsed_ms"] = float64(res.Elapsed.Microseconds()) / 1000
	writeJSON(w, resp)
}

// jsonEvent is the wire form of one feedback interaction.
type jsonEvent struct {
	User   int      `json:"user"`
	Object int      `json:"object"`
	Label  *float64 `json:"label,omitempty"` // default 1 (implicit feedback)
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		httpError(w, http.StatusConflict, fmt.Errorf("this is a read replica of %s; send feedback to the primary", s.primary))
		return
	}
	if s.learner == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("online learning disabled; restart with -online"))
		return
	}
	// Epoch fence: a client that has observed a promotion sends the epoch it
	// believes the shard's writer is at. A server behind that epoch is a
	// deposed primary still answering on its old address — it must reject,
	// not ingest, or the cluster forks. (A client running *behind* the server
	// is fine: the response header below updates it.)
	if h := r.Header.Get(online.EpochHeader); h != "" {
		seen, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad %s header %q", online.EpochHeader, h))
			return
		}
		if own := s.learner.Epoch(); seen > own {
			w.Header().Set(online.EpochHeader, strconv.FormatUint(own, 10))
			httpError(w, http.StatusConflict, fmt.Errorf(
				"fenced: client observed writer epoch %d but this server is at epoch %d — a newer primary has taken over", seen, own))
			return
		}
	}
	var req struct {
		User   *int        `json:"user,omitempty"`
		Object *int        `json:"object,omitempty"`
		Label  *float64    `json:"label,omitempty"`
		Events []jsonEvent `json:"events,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	events := req.Events
	if req.User != nil || req.Object != nil {
		if req.User == nil || req.Object == nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("single event needs both user and object"))
			return
		}
		events = append(events, jsonEvent{User: *req.User, Object: *req.Object, Label: req.Label})
	}
	if len(events) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("no events in body"))
		return
	}
	// Validate the whole batch before ingesting any of it: a mid-batch
	// rejection must not leave earlier events half-applied (appended to
	// histories and the training queue) behind a plain 400 — the client
	// would retry and double-ingest them.
	for i, ev := range events {
		if ev.User < 0 || ev.User >= s.ds.NumUsers {
			httpError(w, http.StatusBadRequest, fmt.Errorf("event %d: user %d outside [0,%d)", i, ev.User, s.ds.NumUsers))
			return
		}
		if ev.Object < 0 || ev.Object >= s.ds.NumObjects {
			httpError(w, http.StatusBadRequest, fmt.Errorf("event %d: object %d outside [0,%d)", i, ev.Object, s.ds.NumObjects))
			return
		}
	}
	// With an experiment tier, attribute each event to its user's arm and
	// run the online HR@K probe BEFORE ingesting: the probe must rank the
	// true object with the history as it stood before the event, or the
	// answer leaks into the question.
	arms := map[int]bool{}
	if s.exp != nil {
		for _, ev := range events {
			base, err := s.baseInstance(ev.User, nil)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			arm, _, _ := s.exp.RecordFeedback(base, ev.Object)
			arms[arm] = true
		}
	}
	// One admission-checked batch call: with a WAL the whole batch shares
	// its durability wait (one group-commit ack for N events), and a full
	// training backlog rejects the batch wholesale — no side effects, no
	// WAL record — so the client can safely retry after Retry-After.
	batch := make([]online.Event, len(events))
	for i, ev := range events {
		batch[i] = online.Event{User: ev.User, Object: ev.Object, Label: 1}
		if ev.Label != nil {
			batch[i].Label = *ev.Label
		}
	}
	started := time.Now()
	if err := s.learner.TryIngestBatchCtx(r.Context(), batch); err != nil {
		if errors.Is(err, online.ErrBacklog) {
			// The trainer drains the queue on its own cadence; that is the
			// honest retry horizon.
			retryAfter(w, s.learner.Config().Interval)
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if s.exp != nil {
		// The batch's ingest latency lands once on each involved arm —
		// feedback's histogram meters ingest, not probe ranking.
		elapsed := time.Since(started)
		for arm := range arms {
			s.exp.ObserveLatency(arm, serve.EndpointFeedback, elapsed)
		}
	}
	st := s.learner.Stats()
	epoch := s.learner.Epoch()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(online.EpochHeader, strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]any{
		"accepted": len(events), "pending": st.Pending,
		"room": s.learner.Room(), "epoch": epoch,
	})
}

// handlePromote performs the follower→primary transition through the wired
// callback (see Config.Promote). Idempotence is the caller's lookout — a
// second call 409s, as does calling it on a primary or an unwired follower.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.replica == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("not a follower; only a follower can be promoted"))
		return
	}
	if s.promote == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("promotion not wired; restart the follower with -promote-wal"))
		return
	}
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.promoted.Load() {
		httpError(w, http.StatusConflict, fmt.Errorf("already promoted"))
		return
	}
	info, err := s.promote()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("promotion failed: %w", err))
		return
	}
	s.promoted.Store(true)
	w.Header().Set(online.EpochHeader, strconv.FormatUint(info.Epoch, 10))
	writeJSON(w, map[string]any{
		"promoted":    true,
		"epoch":       info.Epoch,
		"applied_seq": info.AppliedSeq,
		"generation":  info.Generation,
		"wal_dir":     info.WALDir,
	})
}

// evalRules advances the declarative alert evaluator one step and applies
// its per-arm verdicts: an arm named by any firing rule's "arm" label is
// marked sick, and an arm whose rules all resolved is cleared. Rules are
// evaluated on read, so the health-probe/scrape cadence is the sustain
// clock. Returns nil when no rules are configured.
func (s *Server) evalRules() []obs.RuleState {
	if s.rules == nil {
		return nil
	}
	states := s.rules.Evaluate()
	if s.exp != nil {
		sick := map[int]bool{}
		for _, st := range states {
			arm, ok := s.armIndex[st.Labels["arm"]]
			if !ok {
				continue
			}
			sick[arm] = sick[arm] || st.Firing
		}
		for arm, v := range sick {
			s.exp.MarkSick(arm, v)
		}
	}
	return states
}

// handleAlerts reports every configured alert rule's current state: the
// observed value, whether the comparator holds right now, and whether it
// has held long enough to fire.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	states := s.evalRules()
	if states == nil {
		states = []obs.RuleState{}
	}
	firing := []string{}
	for _, st := range states {
		if st.Firing {
			firing = append(firing, st.Name)
		}
	}
	writeJSON(w, map[string]any{
		"configured": s.rules != nil,
		"rules":      states,
		"firing":     firing,
	})
}

// handleFreshness reports the event-lineage view: how stale the serving
// state is relative to ingest, per published generation. Every number
// derives from primary-clock stamps carried through the WAL, so a follower
// reports the same per-generation freshness as its primary.
func (s *Server) handleFreshness(w http.ResponseWriter, r *http.Request) {
	role := "primary"
	if s.isFollower() {
		role = "follower"
	}
	resp := map[string]any{
		"role":       role,
		"generation": s.eng.Generation(),
		"drift":      s.eng.ScoreDrift(),
	}
	if s.learner != nil {
		resp["trained_through_ms"] = s.learner.TrainedThroughTS()
		resp["lineage"] = s.learner.Lineage()
		resp["freshness"] = map[string]any{
			"trained":  latencyJSON(s.learner.TrainedFreshness().Snapshot()),
			"servable": latencyJSON(s.learner.ServableFreshness().Snapshot()),
		}
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		resp["replica"] = map[string]any{
			"lag_records":       rs.LagRecords,
			"lag_seconds":       rs.LagSeconds,
			"lag_seconds_known": rs.LagSecondsKnown,
			"caught_up":         rs.CaughtUp,
		}
	}
	writeJSON(w, resp)
}

// handleExperiments reports the tier's per-arm online metrics.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	if s.exp == nil {
		httpError(w, http.StatusConflict, fmt.Errorf("no experiment is running; restart with -experiment"))
		return
	}
	stats := s.exp.Stats()
	arms := make([]map[string]any, len(stats))
	for i, st := range stats {
		lat := make(map[string]any, len(st.Latency))
		for ep, snap := range st.Latency {
			lat[ep] = latencyJSON(snap)
		}
		arm := map[string]any{
			"name":             st.Name,
			"weight":           st.Weight,
			"share":            st.Share,
			"generation":       st.Generation,
			"swaps":            st.Swaps,
			"latency":          lat,
			"feedback":         st.Feedback,
			"hr_probes":        st.HRProbes,
			"hr_hits":          st.HRHits,
			"hr_at_k":          st.HRAtK,
			"calibration":      st.Calibration,
			"cal_probes":       st.CalProbes,
			"sick":             st.Sick,
			"swaps_observed":   st.SwapsObserved,
			"avg_swap_lag_ms":  float64(st.AvgSwapLag.Microseconds()) / 1000,
			"last_swap_lag_ms": float64(st.LastSwapLag.Microseconds()) / 1000,
		}
		arms[i] = arm
	}
	writeJSON(w, map[string]any{"arms": arms})
}

// latencyJSON renders one latency snapshot in milliseconds.
func latencyJSON(s obs.Snapshot) map[string]any {
	return map[string]any{
		"count":   s.Count,
		"mean_ms": float64(s.Mean.Microseconds()) / 1000,
		"p50_ms":  float64(s.P50.Microseconds()) / 1000,
		"p95_ms":  float64(s.P95.Microseconds()) / 1000,
		"p99_ms":  float64(s.P99.Microseconds()) / 1000,
		"max_ms":  float64(s.Max.Microseconds()) / 1000,
	}
}

// handleReplicaSnapshot and handleReplicaLog are the log-shipping endpoints
// (primaries with a WAL only — a follower cannot be a replication source,
// chained replication being a later feature).
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.learner == nil || s.learner.WAL() == nil || s.isFollower() {
		httpError(w, http.StatusConflict, fmt.Errorf("replication requires a WAL-backed primary (restart with -online -wal)"))
		return
	}
	s.learner.ServeReplicaSnapshot(w, r)
}

func (s *Server) handleReplicaLog(w http.ResponseWriter, r *http.Request) {
	if s.learner == nil || s.learner.WAL() == nil || s.isFollower() {
		httpError(w, http.StatusConflict, fmt.Errorf("replication requires a WAL-backed primary (restart with -online -wal)"))
		return
	}
	s.learner.ServeReplicaLog(w, r)
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	resp := map[string]any{
		"generation":        st.Generation,
		"engine":            st.Engine,
		"swaps":             st.Swaps,
		"checkpoint_format": "seqfm-ckpt-v2",
	}
	if s.model != nil {
		cfg := s.model.Config()
		resp["num_params"] = s.model.NumParams()
		resp["config"] = map[string]any{
			"dim": cfg.Dim, "layers": cfg.Layers, "max_seq_len": cfg.MaxSeqLen,
			"users": cfg.Space.NumUsers, "objects": cfg.Space.NumObjects,
		}
	}
	if s.learner != nil {
		ls := s.learner.Stats()
		resp["online"] = map[string]any{
			"ingested": ls.Ingested, "dropped": ls.Dropped, "pending": ls.Pending,
			"steps": ls.Steps, "swaps": ls.Swaps, "last_loss": ls.LastLoss,
			"history_users": ls.HistoryUsers,
			"room":          s.learner.Room(),
		}
		if wlog := s.wal(); wlog != nil {
			rec := wlog.Recovered()
			resp["durability"] = map[string]any{
				"log_seq":         ls.LogSeq,
				"log_durable_seq": ls.LogDurableSeq,
				"log_segments":    ls.LogSegments,
				// first_seq > 1 means compaction has discarded a log prefix;
				// everything below it lives only in the state checkpoint.
				"log_first_seq":  ls.LogFirstSeq,
				"epoch":          ls.Epoch,
				"applied_seq":    ls.AppliedSeq,
				"snapshot_seq":   ls.SnapshotSeq,
				"sync_policy":    wlog.Policy().String(),
				"recovered_seq":  rec.Seq,
				"recovered_torn": wlog.Truncated(),
			}
		}
	}
	if s.readLimiter != nil || s.feedbackLimiter != nil {
		read, fb := s.AdmissionStats()
		resp["admission"] = map[string]any{
			"read":     admissionJSON(read),
			"feedback": admissionJSON(fb),
		}
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		resp["replica"] = map[string]any{
			"primary":             s.primary,
			"applied_seq":         rs.AppliedSeq,
			"primary_durable_seq": rs.PrimaryDurableSeq,
			"primary_generation":  rs.PrimaryGeneration,
			"lag_records":         rs.LagRecords,
			"lag_seconds":         rs.LagSeconds,
			"lag_seconds_known":   rs.LagSecondsKnown,
			"caught_up":           rs.CaughtUp,
			"polls":               rs.Polls,
			"poll_errors":         rs.PollErrors,
			"applied_records":     rs.Applied,
			"failed":              rs.Failed,
			"last_error":          rs.LastError,
		}
	}
	if st.IndexSize > 0 {
		idx := map[string]any{
			"backend":        st.IndexBackend,
			"size":           st.IndexSize,
			"build_ms":       float64(st.IndexBuildNanos) / 1e6,
			"recommends":     st.Recommends,
			"retrieved":      st.Retrieved,
			"recall_samples": st.RecallSamples,
		}
		if st.Recommends > 0 {
			idx["avg_recommend_ms"] = float64(st.RecommendNanos) / float64(st.Recommends) / 1e6
			idx["avg_retrieve_ms"] = float64(st.RetrieveNanos) / float64(st.Recommends) / 1e6
		}
		if st.RecallWanted > 0 {
			idx["observed_recall"] = float64(st.RecallHits) / float64(st.RecallWanted)
		}
		resp["index"] = idx
	}
	writeJSON(w, resp)
}

func admissionJSON(st serve.AdmissionStats) map[string]any {
	return map[string]any{
		"admitted":        st.Admitted,
		"in_flight":       st.InFlight,
		"queued":          st.Queued,
		"shed_queue_full": st.ShedQueueFull,
		"shed_timeout":    st.ShedTimeout,
		"max_queued":      st.MaxQueued,
	}
}

// handleHealthz reports liveness plus structured readiness: each present
// subsystem contributes one named check, and any failing check degrades the
// whole endpoint to 503 — a load balancer's health probe pulls the instance
// (sick WAL, exhausted training backlog, replica far behind) before an
// operator has to notice.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	role := "primary"
	if s.isFollower() {
		role = "follower"
	}
	checks := map[string]any{}
	healthy := true
	if wlog := s.wal(); wlog != nil {
		walErr := wlog.Err()
		ok := walErr == nil
		healthy = healthy && ok
		c := map[string]any{"ok": ok}
		if walErr != nil {
			c["error"] = walErr.Error()
		}
		checks["wal"] = c
	}
	if s.learner != nil {
		ls := s.learner.Stats()
		room := s.learner.Room()
		// Backlogged means the admission valve is rejecting every feedback
		// batch — the instance still answers reads, but it is not a healthy
		// ingest target.
		ok := room > 0
		healthy = healthy && ok
		checks["learner"] = map[string]any{
			"ok": ok, "room": room, "pending": ls.Pending,
			"train_lag_s": ls.TrainLagSeconds,
		}
	}
	if s.isFollower() {
		rs := s.replica.Stats()
		ok := !rs.Failed && (rs.CaughtUp || rs.LagSeconds < replicaLagThreshold.Seconds())
		healthy = healthy && ok
		c := map[string]any{
			"ok": ok, "caught_up": rs.CaughtUp,
			"lag_records": rs.LagRecords, "lag_seconds": rs.LagSeconds,
		}
		if rs.LastError != "" {
			c["last_error"] = rs.LastError
		}
		checks["replica"] = c
	}
	if s.rules != nil {
		// Declarative alerts join readiness: only critical rules that have
		// held past their sustain window pull the instance — warnings show
		// in the check body but never flip a load balancer.
		states := s.evalRules()
		var firing, critical []string
		for _, rs := range states {
			if rs.Firing {
				firing = append(firing, rs.Name)
				if rs.Severity == obs.SeverityCritical {
					critical = append(critical, rs.Name)
				}
			}
		}
		ok := len(critical) == 0
		healthy = healthy && ok
		c := map[string]any{"ok": ok, "rules": len(states)}
		if len(firing) > 0 {
			c["firing"] = firing
		}
		if len(critical) > 0 {
			c["critical"] = critical
		}
		checks["alerts"] = c
	}
	status := "ok"
	if !healthy {
		status = "degraded"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{
		"status":     status,
		"checks":     checks,
		"dataset":    s.ds.Name,
		"task":       s.ds.Task.String(),
		"users":      s.ds.NumUsers,
		"objects":    s.ds.NumObjects,
		"uptime_s":   time.Since(s.start).Seconds(),
		"online":     s.learner != nil,
		"role":       role,
		"durable":    s.wal() != nil,
		"experiment": s.exp != nil,
		"engine": map[string]any{
			"generation":     st.Generation,
			"swaps":          st.Swaps,
			"instances":      st.Instances,
			"static_hits":    st.StaticHits,
			"static_misses":  st.StaticMisses,
			"dyn_hits":       st.DynHits,
			"dyn_misses":     st.DynMisses,
			"static_entries": st.StaticEntries,
			"dyn_entries":    st.DynEntries,
		},
	})
}
