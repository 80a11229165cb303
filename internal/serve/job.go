package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
)

// JobState is a job's position in the queued → running → terminal
// lifecycle.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobRequest is the POST /v1/jobs payload. Config is overlaid onto the
// experiment's seeded defaults and decoded strictly — unknown fields are
// errors, durations travel as nanosecond integers. An explicit seed key
// inside Config wins over the top-level Seed.
type JobRequest struct {
	// Experiment is the registry name of the study to run.
	Experiment string `json:"experiment"`
	// Config partially or fully overrides the experiment's default config.
	Config json.RawMessage `json:"config,omitempty"`
	// Seed seeds the run; with Points > 1 it is the campaign seed that
	// per-point seeds derive from.
	Seed int64 `json:"seed,omitempty"`
	// Points fans the job out into this many runs with derived seeds
	// (default 1).
	Points int `json:"points,omitempty"`
	// Warm opts the job out of warm-start snapshot sharing when false;
	// omitted means the server default (on). Ignored for studies without a
	// warm mode.
	Warm *bool `json:"warm,omitempty"`
	// TimeoutNS bounds the job's wall-clock execution (0: the server
	// default).
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
}

// JobStatus is the wire form of a job's state, served by GET /v1/jobs/{id}.
type JobStatus struct {
	ID         string     `json:"id"`
	Experiment string     `json:"experiment"`
	Seed       int64      `json:"seed"`
	Points     int        `json:"points"`
	State      JobState   `json:"state"`
	Error      string     `json:"error,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
}

// metricsBlock is one tagged obs snapshot, streamed as JSONL by the metrics
// endpoint in the order blocks were recorded.
type metricsBlock struct {
	run     string
	metrics []obs.Metric
}

// job is the server-side record of one submitted campaign.
type job struct {
	id      string
	req     JobRequest
	timeout time.Duration
	warm    bool
	retired bool // on Server.done; guarded by Server.mu

	mu       sync.Mutex
	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	results  []experiments.WireResult
	metrics  []metricsBlock
}

// status snapshots the job's wire status.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		Experiment: j.req.Experiment,
		Seed:       j.req.Seed,
		Points:     j.req.Points,
		State:      j.state,
		Error:      j.err,
		Created:    j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// start transitions queued → running and installs the cancel func. It
// returns false when the job was cancelled while queued — the worker must
// then skip it.
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish records the terminal state. A job already cancelled stays
// cancelled.
func (j *job) finish(state JobState, err error, results []experiments.WireResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	if err != nil {
		j.err = err.Error()
	}
	j.results = results
	j.finished = time.Now()
	j.cancel = nil
}

// requestCancel cancels a queued or running job; terminal jobs are left
// alone. It reports whether the request changed anything.
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == JobQueued:
		j.state = JobCancelled
		j.finished = time.Now()
		return true
	case j.state == JobRunning:
		// The run loop observes the context and records the terminal
		// state itself.
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

// addMetrics appends one tagged snapshot to the job's metrics log.
func (j *job) addMetrics(run string, metrics []obs.Metric) {
	if len(metrics) == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.metrics = append(j.metrics, metricsBlock{run: run, metrics: metrics})
}

// snapshotResults returns the job's state and, when done, its results.
func (j *job) snapshotResults() (JobState, []experiments.WireResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.results
}

// snapshotMetrics returns the metrics blocks recorded so far; for running
// jobs this streams completed points.
func (j *job) snapshotMetrics() []metricsBlock {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]metricsBlock, len(j.metrics))
	copy(out, j.metrics)
	return out
}
