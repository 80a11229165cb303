package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gptpfta/internal/experiments"
)

// TestServerStateRestart: with a state dir, a finished job's envelope
// survives a full server restart — the new process answers the status,
// listing and result endpoints for it byte-identically, and fresh
// submissions continue the id sequence past the restored job.
func TestServerStateRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 3, Duration: 3 * time.Minute})

	s1 := New(Options{Workers: 1, StateDir: dir})
	s1.Start()
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := postJob(t, ts1, JobRequest{Experiment: "bounds", Config: cfg})
	waitDone(t, ts1, st.ID)
	before := fetchResults(t, ts1, st.ID)
	ts1.Close()
	s1.Stop()

	s2 := New(Options{Workers: 1, StateDir: dir})
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Stop()
	})
	if loaded := counterValue(s2.Metrics(), "served_state_loaded"); loaded != 1 {
		t.Fatalf("served_state_loaded = %v, want 1", loaded)
	}

	// The restored job answers status and result exactly as before.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != JobDone || got.Experiment != "bounds" {
		t.Fatalf("restored status = %+v, want done bounds job", got)
	}
	after := fetchResults(t, ts2, st.ID)
	rawBefore, _ := json.Marshal(before)
	rawAfter, _ := json.Marshal(after)
	if !bytes.Equal(rawBefore, rawAfter) {
		t.Fatalf("restored results differ:\nbefore: %s\nafter:  %s", rawBefore, rawAfter)
	}

	// New submissions continue past the persisted id and both jobs list.
	st2, _ := postJob(t, ts2, JobRequest{Experiment: "bounds", Config: cfg})
	if st2.ID <= st.ID {
		t.Fatalf("post-restart job id %s does not continue past restored %s", st2.ID, st.ID)
	}
	waitDone(t, ts2, st2.ID)
	list, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	list.Body.Close()
	if len(out.Jobs) != 2 || out.Jobs[0].ID != st.ID || out.Jobs[1].ID != st2.ID {
		t.Fatalf("job listing after restart = %+v, want restored job then new job", out.Jobs)
	}
}

// TestServerStateCancelledPersists: a job cancelled while queued is also
// persisted, so after a restart its status still reads cancelled and its
// result endpoint still answers 409.
func TestServerStateCancelledPersists(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Options{QueueDepth: 4, StateDir: dir}) // never Start()ed: job stays queued
	ts1 := httptest.NewServer(s1.Handler())
	st, _ := postJob(t, ts1, JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts1.Close()

	s2 := New(Options{QueueDepth: 4, StateDir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	r2, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got.State != JobCancelled {
		t.Fatalf("restored state %s, want cancelled", got.State)
	}
	r3, err := http.Get(ts2.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("restored result status %d, want 409", r3.StatusCode)
	}
}

// getStatus issues GET path against ts and returns the status code.
func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// deleteJob issues DELETE /v1/jobs/{id} against ts and returns the status code.
func deleteJob(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	return r.StatusCode
}

// listedIDs returns the ids GET /v1/jobs lists, in order.
func listedIDs(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(out.Jobs))
	for i, st := range out.Jobs {
		ids[i] = st.ID
	}
	return ids
}

// TestServerEvictsOldestFinished: past maxFinished finished jobs, the
// oldest are evicted. Their ids answer 410 on every job endpoint and leave
// the listing, the retained ones still answer, an id never issued answers
// 404, and a queued job is never evicted.
func TestServerEvictsOldestFinished(t *testing.T) {
	const extra = 3
	s := New(Options{QueueDepth: maxFinished + extra + 1}) // never Start()ed
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})
	var ids []string
	for i := 0; i < maxFinished+extra; i++ {
		st, resp := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
		// Cancelling a queued job finishes it at once.
		deleteJob(t, ts, st.ID)
	}
	queued, _ := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})

	for _, id := range ids[:extra] {
		for _, path := range []string{"", "/result", "/metrics"} {
			if code := getStatus(t, ts, "/v1/jobs/"+id+path); code != http.StatusGone {
				t.Fatalf("GET %s%s = %d, want 410", id, path, code)
			}
		}
		if code := deleteJob(t, ts, id); code != http.StatusGone {
			t.Fatalf("DELETE %s = %d, want 410", id, code)
		}
	}
	if code := getStatus(t, ts, "/v1/jobs/"+ids[extra]); code != http.StatusOK {
		t.Fatalf("oldest retained job answers %d, want 200", code)
	}
	for _, id := range []string{jobID(maxFinished + extra + 2), "job-0", "nope"} {
		if code := getStatus(t, ts, "/v1/jobs/"+id); code != http.StatusNotFound {
			t.Fatalf("GET never-issued %s = %d, want 404", id, code)
		}
	}
	want := append(append([]string(nil), ids[extra:]...), queued.ID)
	if got := listedIDs(t, ts); len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != queued.ID {
		t.Fatalf("listing holds %d jobs %v…, want the %d retained then the queued one", len(got), got[:1], len(want))
	}
}

// TestServerEvictsInFinishOrder: eviction follows the order jobs finished,
// not the order they were submitted. A job submitted first but finished
// last is the newest finished job and keeps answering; the first of the
// later jobs to finish is the one evicted.
func TestServerEvictsInFinishOrder(t *testing.T) {
	s := New(Options{QueueDepth: maxFinished + 1}) // never Start()ed
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})
	first, _ := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
	var later []string
	for i := 0; i < maxFinished; i++ {
		st, _ := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
		later = append(later, st.ID)
		if code := deleteJob(t, ts, st.ID); code != http.StatusAccepted {
			t.Fatalf("DELETE %s = %d, want 202", st.ID, code)
		}
	}
	if code := deleteJob(t, ts, first.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE %s = %d, want 202", first.ID, code)
	}
	if code := getStatus(t, ts, "/v1/jobs/"+first.ID); code != http.StatusOK {
		t.Fatalf("job finished last answers %d, want 200", code)
	}
	if code := getStatus(t, ts, "/v1/jobs/"+later[0]); code != http.StatusGone {
		t.Fatalf("job finished first answers %d, want 410", code)
	}
	if got := listedIDs(t, ts); len(got) != maxFinished || got[0] != first.ID {
		t.Fatalf("listing holds %d jobs starting %v, want %d starting %s", len(got), got[:1], maxFinished, first.ID)
	}
}

// TestServerStateLoadsNewestRetained: a restart reads only the newest
// maxFinished envelopes of the state dir; older persisted ids answer 410
// and new submissions still continue past the highest persisted id.
func TestServerStateLoadsNewestRetained(t *testing.T) {
	dir := t.TempDir()
	const total = maxFinished + 2
	for n := 1; n <= total; n++ {
		raw, err := json.Marshal(persistedJob{Status: JobStatus{
			ID: jobID(n), Experiment: "bounds", Points: 1, State: JobCancelled, Created: time.Unix(int64(n), 0),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, jobID(n)+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Files not named exactly <job id>.json are no envelopes: they are
	// counted as errors and move neither the listing nor the id sequence.
	for _, stray := range []string{"123.json", "job-999.json"} {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{StateDir: dir, QueueDepth: 1}) // never Start()ed
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if loaded := counterValue(s.Metrics(), "served_state_loaded"); loaded != maxFinished {
		t.Fatalf("served_state_loaded = %v, want %d", loaded, maxFinished)
	}
	if errs := counterValue(s.Metrics(), "served_state_errors"); errs != 2 {
		t.Fatalf("served_state_errors = %v, want 2 for the stray files", errs)
	}
	if got := listedIDs(t, ts); len(got) != maxFinished || got[0] != jobID(total-maxFinished+1) {
		t.Fatalf("listing after restart holds %d jobs starting %v, want %d from %s",
			len(got), got[:1], maxFinished, jobID(total-maxFinished+1))
	}
	if code := getStatus(t, ts, "/v1/jobs/"+jobID(1)); code != http.StatusGone {
		t.Fatalf("unloaded persisted job answers %d, want 410", code)
	}
	if _, err := os.Stat(filepath.Join(dir, jobID(1)+".json")); !os.IsNotExist(err) {
		t.Fatalf("unloaded envelope %s was not pruned (stat err %v)", jobID(1), err)
	}
	st, _ := postJob(t, ts, JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})
	if st.ID != jobID(total+1) {
		t.Fatalf("first new id %s, want %s", st.ID, jobID(total+1))
	}
}

// TestServerStatePrunesEvicted: the state dir holds no more envelopes than
// the server retains. Evicted jobs' envelopes are deleted, and a restart
// still continues past every id issued before, even when the job with the
// highest id finished first and was evicted with its envelope.
func TestServerStatePrunesEvicted(t *testing.T) {
	dir := t.TempDir()
	const total = maxFinished + 6
	s1 := New(Options{StateDir: dir, QueueDepth: total}) // never Start()ed
	ts1 := httptest.NewServer(s1.Handler())
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})
	var ids []string
	for i := 0; i < total; i++ {
		st, resp := postJob(t, ts1, JobRequest{Experiment: "bounds", Config: cfg})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	// The highest id finishes first, so it is among the evicted.
	order := append([]string{ids[total-1]}, ids[:total-1]...)
	for _, id := range order {
		if code := deleteJob(t, ts1, id); code != http.StatusAccepted {
			t.Fatalf("DELETE %s = %d, want 202", id, code)
		}
	}
	ts1.Close()
	s1.Stop() // drains the cancelled jobs still in the queue
	if errs := counterValue(s1.Metrics(), "served_state_errors"); errs != 0 {
		t.Fatalf("served_state_errors = %v, want 0", errs)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	envelopes := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".json" {
			envelopes++
		}
	}
	if envelopes > maxFinished {
		t.Fatalf("state dir holds %d envelopes after %d finished jobs, want at most %d", envelopes, total, maxFinished)
	}
	if _, err := os.Stat(filepath.Join(dir, ids[total-1]+".json")); !os.IsNotExist(err) {
		t.Fatalf("evicted job %s still has an envelope (stat err %v)", ids[total-1], err)
	}

	s2 := New(Options{StateDir: dir, QueueDepth: 1}) // never Start()ed
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if loaded := counterValue(s2.Metrics(), "served_state_loaded"); loaded != maxFinished {
		t.Fatalf("served_state_loaded = %v, want %d", loaded, maxFinished)
	}
	if code := getStatus(t, ts2, "/v1/jobs/"+ids[total-1]); code != http.StatusGone {
		t.Fatalf("evicted highest id answers %d after restart, want 410", code)
	}
	st, _ := postJob(t, ts2, JobRequest{Experiment: "bounds", Config: cfg})
	if st.ID != jobID(total+1) {
		t.Fatalf("first new id after restart %s, want %s", st.ID, jobID(total+1))
	}
}
