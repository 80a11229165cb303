package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gptpfta/internal/experiments"
)

// persistedJob is the on-disk envelope of one terminal job: the wire status
// plus, for done jobs, the versioned result envelopes — exactly what the
// status and result endpoints need to answer after a restart. Point metrics
// are not persisted; a restored job's metrics endpoint serves only the live
// server block.
type persistedJob struct {
	Status  JobStatus                `json:"status"`
	Results []experiments.WireResult `json:"results,omitempty"`
}

// stateFile is a job's path under the state directory.
func (s *Server) stateFile(id string) string {
	return filepath.Join(s.opts.StateDir, id+".json")
}

// persist writes a terminal job's envelope to the state directory via a
// temp-file rename, so a crash mid-write never leaves a truncated envelope
// for loadState to trip over. Non-terminal jobs and persistence errors are
// skipped (the latter counted on served_state_errors) — persistence is an
// availability feature, not a correctness gate.
func (s *Server) persist(j *job) {
	if s.opts.StateDir == "" {
		return
	}
	st := j.status()
	if !st.State.Terminal() {
		return
	}
	_, results := j.snapshotResults()
	raw, err := json.MarshalIndent(persistedJob{Status: st, Results: results}, "", "  ")
	if err != nil {
		s.mStateErrors.Inc()
		return
	}
	tmp, err := os.CreateTemp(s.opts.StateDir, j.id+".tmp-*")
	if err != nil {
		s.mStateErrors.Inc()
		return
	}
	if _, err := tmp.Write(append(raw, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.mStateErrors.Inc()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.mStateErrors.Inc()
		return
	}
	if err := os.Rename(tmp.Name(), s.stateFile(j.id)); err != nil {
		os.Remove(tmp.Name())
		s.mStateErrors.Inc()
		return
	}
	s.mStatePersisted.Inc()
}

// loadState restores the newest maxFinished persisted terminal jobs into
// the jobs map so the status, listing and result endpoints keep answering
// for them across restarts, and advances nextID past the highest persisted
// id so new submissions never collide with a persisted job; older
// envelopes are not read, and their ids answer 410 Gone. Only files named
// exactly <job id>.json count as envelopes. Unreadable or malformed files
// are skipped and counted, and a well-named one still advances nextID so no
// new job overwrites it; restored jobs are listed before this process's own
// submissions, in id order, and are the first evicted.
func (s *Server) loadState() {
	dir := s.opts.StateDir
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.mStateErrors.Inc()
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		s.mStateErrors.Inc()
		return
	}
	type envelope struct {
		name string
		n    int // the id's number
	}
	var files []envelope
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(strings.TrimSuffix(name, ".json"), "job-"))
		if err != nil || n < 1 || name != jobID(n)+".json" {
			s.mStateErrors.Inc()
			continue
		}
		files = append(files, envelope{name, n})
		s.nextID = max(s.nextID, n)
	}
	sort.Slice(files, func(a, b int) bool { return files[a].n > files[b].n })
	var ids []string
	for _, f := range files {
		if len(ids) == maxFinished {
			break
		}
		raw, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			s.mStateErrors.Inc()
			continue
		}
		var pj persistedJob
		if err := json.Unmarshal(raw, &pj); err != nil {
			s.mStateErrors.Inc()
			continue
		}
		st := pj.Status
		if st.ID == "" || !st.State.Terminal() || st.ID != strings.TrimSuffix(f.name, ".json") {
			s.mStateErrors.Inc()
			continue
		}
		j := &job{
			id: st.ID,
			req: JobRequest{
				Experiment: st.Experiment,
				Seed:       st.Seed,
				Points:     st.Points,
			},
			state:   st.State,
			err:     st.Error,
			created: st.Created,
			results: pj.Results,
		}
		if st.Started != nil {
			j.started = *st.Started
		}
		if st.Finished != nil {
			j.finished = *st.Finished
		} else {
			// Terminal implies finished; a missing stamp would make the
			// restored status claim the job never ended.
			j.finished = time.Now()
		}
		j.retired = true
		s.jobs[j.id] = j
		ids = append(ids, j.id)
	}
	sort.Strings(ids)
	s.order = append(s.order, ids...)
	s.done = append(s.done, ids...)
	s.mStateLoaded.Add(uint64(len(ids)))
}
