package serve

import (
	"encoding/json"
	"errors"
	"io/fs"
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

// lastIDFile names the state directory's id marker: the highest job id the
// server had issued when it last deleted evicted envelopes. It keeps a
// restart from re-issuing an evicted id whose envelope is gone, even when
// that id was the highest one. It is no envelope (no .json suffix).
const lastIDFile = "last-id"

// writeFileAtomic writes data to dir/name via a temp-file rename, so a
// crash mid-write never leaves a truncated file for loadState to trip over.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// persist writes a terminal job's envelope to the state directory.
// Non-terminal jobs and persistence errors are skipped (the latter counted
// on served_state_errors) — persistence is an availability feature, not a
// correctness gate.
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
	if err == nil {
		err = writeFileAtomic(s.opts.StateDir, j.id+".json", append(raw, '\n'))
	}
	if err != nil {
		s.mStateErrors.Inc()
		return
	}
	s.mStatePersisted.Inc()
}

// prune deletes the envelopes of evicted jobs, so the state directory
// holds no more than the retained maxFinished. It first records the
// highest issued id in the lastIDFile marker; if that fails it deletes
// nothing, since the envelopes then still carry the id sequence. Failures
// other than an already-missing file count on served_state_errors.
func (s *Server) prune(evicted []string) {
	if s.opts.StateDir == "" || len(evicted) == 0 {
		return
	}
	// Serialised, so the marker only ever moves forward.
	s.pruneMu.Lock()
	defer s.pruneMu.Unlock()
	s.mu.RLock()
	last := s.nextID
	s.mu.RUnlock()
	if err := writeFileAtomic(s.opts.StateDir, lastIDFile, []byte(jobID(last)+"\n")); err != nil {
		s.mStateErrors.Inc()
		return
	}
	for _, id := range evicted {
		if err := os.Remove(s.stateFile(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.mStateErrors.Inc()
		}
	}
}

// parseJobID returns n for a name that is exactly jobID(n), n >= 1.
func parseJobID(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(name, "job-"))
	return n, err == nil && n >= 1 && name == jobID(n)
}

// loadState restores the newest maxFinished persisted terminal jobs into
// the jobs map so the status, listing and result endpoints keep answering
// for them across restarts, and advances nextID past the highest persisted
// id and the lastIDFile marker so new submissions never reuse an id; older
// envelopes are not read but pruned, and their ids answer 410 Gone. Only
// files named exactly <job id>.json count as envelopes. Unreadable or
// malformed files are skipped and counted, and a well-named one still
// advances nextID so no new job overwrites it; restored jobs are listed
// before this process's own submissions, in id order, and are the first
// evicted.
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
	if raw, err := os.ReadFile(filepath.Join(dir, lastIDFile)); err == nil {
		if n, ok := parseJobID(strings.TrimSpace(string(raw))); ok {
			s.nextID = max(s.nextID, n)
		} else {
			s.mStateErrors.Inc()
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		s.mStateErrors.Inc()
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
		n, ok := parseJobID(strings.TrimSuffix(name, ".json"))
		if !ok {
			s.mStateErrors.Inc()
			continue
		}
		files = append(files, envelope{name, n})
		s.nextID = max(s.nextID, n)
	}
	sort.Slice(files, func(a, b int) bool { return files[a].n > files[b].n })
	var ids []string
	for i, f := range files {
		if len(ids) == maxFinished {
			var older []string
			for _, f := range files[i:] {
				older = append(older, jobID(f.n))
			}
			s.prune(older)
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
