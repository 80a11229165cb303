package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
	"gptpfta/internal/runner"
	"gptpfta/internal/sim"
)

// Options configures a Server. The zero value selects sensible defaults;
// explicit -1 makes a bound unbounded where noted.
type Options struct {
	// Workers is the number of jobs executed concurrently (0: 2).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue rejects submissions with 503 (0: 16).
	QueueDepth int
	// PointParallel is the worker count of each job's point pool (0: 1).
	PointParallel int
	// CacheEntries bounds the warm-snapshot LRU by entry count (0: 8,
	// -1: unbounded).
	CacheEntries int
	// MaxPoints caps a single job's fan-out (0: 64).
	MaxPoints int
	// DefaultTimeout bounds each job's execution when the request does not
	// set its own (0: no timeout).
	DefaultTimeout time.Duration
	// StateDir, when set, persists every job that reaches a terminal state
	// as a JSON envelope (status + wire results) under this directory, and
	// New loads the newest maxFinished back so a restarted server still
	// answers GET /v1/jobs/{id} and GET /v1/jobs/{id}/result for them.
	// Unreadable files are skipped; job IDs continue past the highest
	// persisted one.
	StateDir string
}

// withDefaults resolves the zero-value conventions.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.PointParallel <= 0 {
		o.PointParallel = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 8
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 64
	}
	return o
}

// maxFinished is how many finished jobs a server keeps answering for. Past
// it, the jobs that finished earliest are evicted: their ids answer 410
// Gone and leave the listing. A job holds its wire results (~0.17 MB for
// the smoke netchaos job), so the bound caps that memory near 11 MB however
// long the server runs; a client that needs older results reads them from
// the -state-dir envelopes.
const maxFinished = 64

// Server queues experiment jobs, runs them on a fixed worker pool and keeps
// the shared warm-snapshot cache. It is the HTTP-independent core; Handler
// exposes it as an http.Handler.
type Server struct {
	opts  Options
	reg   *obs.Registry
	cache *SnapshotCache
	queue chan *job

	mu     sync.RWMutex
	jobs   map[string]*job
	order  []string // submission order, for GET /v1/jobs
	done   []string // retained finished jobs, oldest finish first
	nextID int      // ids job-000001 … of this number were all issued
	closed bool

	pruneMu sync.Mutex // orders prune's marker writes

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mSubmitted, mRejected                       *obs.Counter
	mStatePersisted, mStateLoaded, mStateErrors *obs.Counter
}

// New returns a stopped server; call Start to launch its workers. The
// server's own registry (snapshot-cache and queue counters) is served by
// the metrics endpoint of every job under the run tag "server".
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		opts:            opts,
		reg:             reg,
		cache:           NewSnapshotCache(reg, opts.CacheEntries),
		queue:           make(chan *job, opts.QueueDepth),
		jobs:            make(map[string]*job),
		mSubmitted:      reg.Counter("served_jobs_submitted"),
		mRejected:       reg.Counter("served_jobs_rejected"),
		mStatePersisted: reg.Counter("served_state_persisted"),
		mStateLoaded:    reg.Counter("served_state_loaded"),
		mStateErrors:    reg.Counter("served_state_errors"),
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	s.loadState()
	return s
}

// Cache exposes the shared snapshot cache (tests assert on its occupancy).
func (s *Server) Cache() *SnapshotCache { return s.cache }

// Metrics exposes the server-level registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case <-s.baseCtx.Done():
					return
				case j := <-s.queue:
					s.runJob(j)
				}
			}
		}()
	}
}

// Stop rejects further submissions, cancels running jobs (they finish as
// cancelled), waits for the workers to drain, and marks jobs still sitting
// in the queue cancelled so no job is left "queued" forever.
func (s *Server) Stop() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	// Workers are gone; anything still queued will never start. Submits
	// check closed and enqueue inside one s.mu critical section, so no
	// job can land in the queue after this drain.
	for {
		select {
		case j := <-s.queue:
			j.finish(JobCancelled, errors.New("server shutdown before the job started"), nil)
			s.retire(j)
		default:
			return
		}
	}
}

// submit registers and enqueues a job built from req.
func (s *Server) submit(req JobRequest) (*job, int, error) {
	exp, err := experiments.Lookup(req.Experiment)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	if req.Points <= 0 {
		req.Points = 1
	}
	if req.Points > s.opts.MaxPoints {
		return nil, http.StatusBadRequest,
			fmt.Errorf("points %d exceeds the server cap %d", req.Points, s.opts.MaxPoints)
	}
	if req.TimeoutNS < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("timeout_ns must be non-negative")
	}
	// Decode the config now so a malformed payload fails the submission,
	// not the queued job.
	if _, err := experiments.SeededConfig(exp, req.Seed, req.Config); err != nil {
		return nil, http.StatusBadRequest, err
	}

	timeout := s.opts.DefaultTimeout
	if req.TimeoutNS > 0 {
		timeout = time.Duration(req.TimeoutNS)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down")
	}
	j := &job{
		id:      jobID(s.nextID + 1),
		req:     req,
		timeout: timeout,
		state:   JobQueued,
		created: time.Now(),
	}
	// Enqueue while still holding s.mu (the default arm keeps this
	// non-blocking) so registration and enqueue are atomic: a failed send
	// never has to roll back state that concurrent submits built on.
	select {
	case s.queue <- j:
		s.nextID++
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
		s.mSubmitted.Inc()
		return j, http.StatusAccepted, nil
	default:
		s.mu.Unlock()
		s.mRejected.Inc()
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("job queue is full (%d queued)", s.opts.QueueDepth)
	}
}

// jobID formats the n-th issued job id.
func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// find resolves the request's job id. It answers 410 Gone for a job this
// server issued or restored and has since evicted, and 404 for any other
// unknown id.
func (s *Server) find(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	n, valid := parseJobID(id)
	s.mu.RLock()
	j, ok := s.jobs[id]
	issued := valid && n <= s.nextID
	s.mu.RUnlock()
	switch {
	case ok:
		return j, true
	case issued:
		writeError(w, http.StatusGone, fmt.Errorf("job %s was evicted: the server keeps the newest %d finished jobs", id, maxFinished))
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", id))
	}
	return nil, false
}

// retire persists a job the first time it sees it finished and queues it
// for eviction; the oldest finished jobs beyond maxFinished are then
// evicted, in finish order, and their envelopes pruned. A terminal state
// never changes, so one envelope write per job suffices, and a second
// retire cannot re-create the envelope of a job evicted in between.
func (s *Server) retire(j *job) {
	if state, _ := j.snapshotResults(); !state.Terminal() {
		return
	}
	s.mu.Lock()
	if j.retired {
		s.mu.Unlock()
		return
	}
	j.retired = true
	s.mu.Unlock()
	// Persisted before it joins s.done, so no eviction can prune the
	// envelope ahead of this write.
	s.persist(j)

	s.mu.Lock()
	s.done = append(s.done, j.id)
	if len(s.done) <= maxFinished {
		s.mu.Unlock()
		return
	}
	evicted := append([]string(nil), s.done[:len(s.done)-maxFinished]...)
	for _, id := range evicted {
		delete(s.jobs, id)
	}
	s.done = append(s.done[:0], s.done[len(s.done)-maxFinished:]...)
	kept := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			kept = append(kept, id)
		}
	}
	s.order = kept
	s.mu.Unlock()
	s.prune(evicted)
}

// runJob executes one job on a worker: it fans the job's points across a
// per-job runner pool (panic isolation, deterministic outcome order) under
// a per-job cancellable/timeout context, routing warm-capable configs
// through the shared snapshot cache.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if j.timeout > 0 {
		// Chain the timeout onto the cancellable context so both cancel
		// funcs run (the outer one via the defer above) and neither
		// registration on baseCtx outlives the job.
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, j.timeout)
		defer cancelTimeout()
	}
	if !j.start(cancel) {
		return // cancelled while queued
	}

	exp, err := experiments.Lookup(j.req.Experiment)
	if err != nil {
		// Unreachable after submit-time validation, but a registry is
		// mutable in tests.
		j.finish(JobFailed, err, nil)
		s.retire(j)
		return
	}

	jobReg := obs.NewRegistry()
	runs := make([]runner.Run, j.req.Points)
	for i := range runs {
		name := fmt.Sprintf("point/%d", i)
		pointSeed := j.req.Seed
		if j.req.Points > 1 {
			pointSeed = sim.DeriveSeed(j.req.Seed, "served/"+name)
		}
		runs[i] = runner.Run{Name: name, Do: func(ctx context.Context) (any, error) {
			cfg, err := experiments.SeededConfig(exp, pointSeed, j.req.Config)
			if err != nil {
				return nil, err
			}
			cfg, _ = experiments.EnableWarmStart(cfg, jobReg, s.cache)
			res, err := exp.Run(ctx, cfg)
			if err != nil {
				return nil, err
			}
			w := experiments.Wire(j.req.Experiment, res)
			j.addMetrics(name, w.Obs)
			return w, nil
		}}
	}

	outcomes := runner.New(s.opts.PointParallel).WithMetrics(jobReg).Execute(ctx, runs)
	j.addMetrics("job", jobReg.Snapshot())
	results, err := runner.Values[experiments.WireResult](outcomes)
	switch {
	case err == nil:
		j.finish(JobDone, nil, results)
	case errors.Is(err, context.Canceled) && !errors.Is(ctx.Err(), context.DeadlineExceeded):
		// Client cancellation and server shutdown both land here; only
		// timeouts fall through to failed.
		if s.baseCtx.Err() != nil {
			err = fmt.Errorf("server shutdown interrupted the job: %w", err)
		}
		j.finish(JobCancelled, err, nil)
	default:
		j.finish(JobFailed, err, nil)
	}
	s.retire(j)
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	return mux
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body: {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// experimentInfo is one GET /v1/experiments entry.
type experimentInfo struct {
	Name          string          `json:"name"`
	Description   string          `json:"description"`
	Warm          bool            `json:"warm"`
	DefaultConfig json.RawMessage `json:"default_config"`
}

// handleExperiments lists the registry: name, description, warm-start
// capability and the default config at the requested seed (?seed=N,
// default 1) — the exact JSON a client can edit and POST back.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	seed := int64(1)
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q: %w", q, err))
			return
		}
		seed = v
	}
	list := make([]experimentInfo, 0)
	for _, e := range experiments.All() {
		cfg := e.DefaultConfig(seed)
		raw, err := json.Marshal(cfg)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		_, warm := experiments.EnableWarmStart(cfg, nil, nil)
		list = append(list, experimentInfo{
			Name:          e.Name(),
			Description:   e.Description(),
			Warm:          warm,
			DefaultConfig: raw,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": list})
}

// handleSubmit accepts a job: 202 with the job status on success, 404 with
// the registry's did-you-mean error for unknown experiments, 400 for a bad
// config, 503 when the queue is full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	j, status, err := s.submit(req)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, status, j.status())
}

// handleJobs lists every retained job in submission order.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.RUnlock()
	list := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		list = append(list, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

// handleStatus serves one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleCancel cancels a queued or running job (202), reports terminal jobs
// with 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r)
	if !ok {
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is already %s", j.id, j.status().State))
		return
	}
	// A queued job is terminal right away; persist skips the running case
	// (the worker retires it when the run loop observes the cancel).
	s.retire(j)
	writeJSON(w, http.StatusAccepted, j.status())
}

// jobResults is the GET /v1/jobs/{id}/result body: the versioned wire
// envelope of every point, in point order.
type jobResults struct {
	ID         string                   `json:"id"`
	Experiment string                   `json:"experiment"`
	Points     int                      `json:"points"`
	Results    []experiments.WireResult `json:"results"`
}

// handleResult serves a finished job's results; non-done jobs answer 409
// with the current state.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r)
	if !ok {
		return
	}
	state, results := j.snapshotResults()
	if state != JobDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", j.id, state))
		return
	}
	writeJSON(w, http.StatusOK, jobResults{
		ID:         j.id,
		Experiment: j.req.Experiment,
		Points:     j.req.Points,
		Results:    results,
	})
}

// handleMetrics streams the job's obs snapshots as JSONL: one point block
// per completed point, the job-level runner block, and the server block
// (snapshot cache, queue counters). Available while the job is still
// running — completed points stream early.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.find(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, b := range j.snapshotMetrics() {
		if err := obs.WriteJSONL(w, b.run, b.metrics); err != nil {
			return
		}
	}
	_ = obs.WriteJSONL(w, "server", s.reg.Snapshot())
}
