package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
)

// testServer boots a started server plus its HTTP front.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Stop()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != JobDone {
				t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
			}
			return st
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

func fetchResults(t *testing.T, ts *httptest.Server, id string) []experiments.WireResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("result status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []experiments.WireResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Results
}

// stableSurface strips the obs snapshots from a result set and marshals
// what remains — the schema/summary/rows surface the determinism gate
// guarantees.
func stableSurface(t *testing.T, results []experiments.WireResult) []byte {
	t.Helper()
	trimmed := make([]experiments.WireResult, len(results))
	for i, r := range results {
		r.Obs = nil
		trimmed[i] = r
	}
	raw, err := json.Marshal(trimmed)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func rawConfig(t *testing.T, cfg any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServerEveryExperiment is the tentpole acceptance check: every
// registered experiment runs end-to-end through POST /v1/jobs with a JSON
// config, finishes done, and serves a schema-1 result envelope plus a
// non-empty metrics stream.
func TestServerEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep through the job server")
	}
	_, ts := testServer(t, Options{Workers: 4})

	min := time.Minute
	configs := map[string]any{
		"baseline":      experiments.BaselineConfig{Seed: 7, Duration: 10 * min},
		"single-domain": experiments.BaselineConfig{Seed: 7, Duration: 10 * min},
		"flag-policy":   experiments.BaselineConfig{Seed: 7, Duration: 10 * min},
		"bmca":          experiments.BMCAReconvergenceConfig{Seed: 7, AnnounceInterval: 250 * time.Millisecond},
		"bounds":        experiments.BoundsConfig{Seed: 7, Duration: 3 * min},
		"domains":       experiments.DomainSweepConfig{Seed: 7, Counts: []int{2, 4}, Duration: 8 * min, Parallel: 1},
		"dynamic":       experiments.DynamicMeshConfig{Seed: 7},
		"faultinjection": experiments.FaultInjectionConfig{
			Seed: 7, Duration: 8 * min, GMPeriod: 2 * min,
			RedundantMinPerHour: 6, RedundantMaxPerHour: 12, Downtime: 30 * time.Second,
		},
		"interval": experiments.IntervalSweepConfig{
			Seed: 7, Intervals: []time.Duration{125 * time.Millisecond, 250 * time.Millisecond},
			Duration: 3 * min, Parallel: 1,
		},
		"multiseed": experiments.MultiSeedConfig{Seeds: []int64{5, 6}, Duration: 6 * min, Parallel: 1},
		"netchaos": experiments.NetworkChaosConfig{
			Seed: 7, Duration: 4*min + 30*time.Second,
			BurstBadLoss: []float64{0.5}, PartitionDurations: []time.Duration{10 * time.Second}, Parallel: 1,
		},
		"attacks": experiments.AttacksConfig{
			Seed: 7, Duration: 3 * min, AttackStart: min,
			ByzantineCounts: []int{2}, Delays: []time.Duration{24 * time.Microsecond},
			Diversity: []string{"identical"}, Parallel: 1,
		},
		"onestep":    experiments.OneStepStudyConfig{Seed: 7},
		"recovery":   experiments.RecoveryConfig{Seed: 7, Duration: 40 * min},
		"resilience": experiments.CyberResilienceConfig{Seed: 7, Duration: 8 * min},
		"tas":        experiments.TASStudyConfig{Seed: 7},
		"voting":     experiments.VotingConfig{Seed: 7},
		"wansites": experiments.WanSitesConfig{
			Seed: 7, Duration: 40 * time.Second, FaultStart: 15 * time.Second,
			FaultDuration: 10 * time.Second, SiteCounts: []int{4},
			FailedSites: []int{2}, Asyms: []time.Duration{0}, Parallel: 1,
		},
	}
	for _, name := range experiments.Names() {
		if _, ok := configs[name]; !ok {
			t.Fatalf("no job-server test config for registered experiment %q", name)
		}
	}

	ids := make(map[string]string, len(configs))
	for _, name := range experiments.Names() {
		st, resp := postJob(t, ts, JobRequest{Experiment: name, Config: rawConfig(t, configs[name])})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, resp.StatusCode)
		}
		ids[name] = st.ID
	}
	for _, name := range experiments.Names() {
		waitDone(t, ts, ids[name])
		results := fetchResults(t, ts, ids[name])
		if len(results) != 1 {
			t.Fatalf("%s: %d results, want 1", name, len(results))
		}
		w := results[0]
		if w.Schema != experiments.ResultSchemaVersion || w.Experiment != name || w.Summary == "" || len(w.Rows) < 2 {
			t.Fatalf("%s: bad envelope: schema=%d experiment=%q summary=%q rows=%d",
				name, w.Schema, w.Experiment, w.Summary, len(w.Rows))
		}

		resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[name] + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		records, err := obs.ReadJSONL(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: metrics JSONL: %v", name, err)
		}
		if len(records) == 0 {
			t.Fatalf("%s: empty metrics stream", name)
		}
	}
}

// TestServerWarmSharing is the cache acceptance criterion: two concurrent
// jobs sharing a convergence prefix trigger exactly one prefix run, and
// their results are identical to each other and to a cold run of the same
// config (the study run directly, without a cache, forks nothing).
func TestServerWarmSharing(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 3, Duration: 4 * time.Minute})

	a, _ := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
	b, _ := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
	waitDone(t, ts, a.ID)
	waitDone(t, ts, b.ID)

	reg := s.Metrics()
	if misses := counterValue(reg, "snapcache_misses"); misses != 1 {
		t.Fatalf("snapcache_misses = %v, want 1 (single prefix convergence)", misses)
	}
	if hits := counterValue(reg, "snapcache_hits"); hits < 1 {
		t.Fatalf("snapcache_hits = %v, want >= 1", hits)
	}

	exp, err := experiments.Lookup("bounds")
	if err != nil {
		t.Fatal(err)
	}
	coldCfg, err := experiments.SeededConfig(exp, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := exp.Run(context.Background(), coldCfg)
	if err != nil {
		t.Fatal(err)
	}

	ra, rb := fetchResults(t, ts, a.ID), fetchResults(t, ts, b.ID)
	rc := []experiments.WireResult{experiments.Wire("bounds", cold)}
	// Identity covers the deterministic result surface — the same rows the
	// golden digests hash. Obs gauges (e.g. allocator pool hit rates)
	// measure process state, not simulation state, and are exempt by
	// design.
	ja, jb, jc := stableSurface(t, ra), stableSurface(t, rb), stableSurface(t, rc)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("warm twins diverge:\n%s\n%s", ja, jb)
	}
	if !bytes.Equal(ja, jc) {
		t.Fatalf("warm result differs from cold:\nwarm: %s\ncold: %s", ja, jc)
	}
	if s.Cache().Len() == 0 {
		t.Fatal("snapshot cache empty after warm jobs")
	}
}

// TestServerDistinctPrefixesDontShare: different seeds hash to different
// prefixes, so nothing is shared — each job converges its own prefix (cold
// for the cache) and both still finish.
func TestServerDistinctPrefixesDontShare(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	a, _ := postJob(t, ts, JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 3, Duration: 4 * time.Minute})})
	b, _ := postJob(t, ts, JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 4, Duration: 4 * time.Minute})})
	waitDone(t, ts, a.ID)
	waitDone(t, ts, b.ID)
	reg := s.Metrics()
	if misses := counterValue(reg, "snapcache_misses"); misses != 2 {
		t.Fatalf("snapcache_misses = %v, want 2", misses)
	}
	if hits := counterValue(reg, "snapcache_hits"); hits != 0 {
		t.Fatalf("snapcache_hits = %v, want 0", hits)
	}
}

// TestServerMultiPoint: points > 1 fans out derived seeds; every point gets
// its own envelope.
func TestServerMultiPoint(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, PointParallel: 2})
	st, _ := postJob(t, ts, JobRequest{
		Experiment: "bounds",
		Seed:       11,
		Points:     2,
		Config:     json.RawMessage(`{"duration": 180000000000}`),
	})
	waitDone(t, ts, st.ID)
	results := fetchResults(t, ts, st.ID)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if results[0].Summary == results[1].Summary {
		t.Fatalf("derived-seed points produced identical summaries: %s", results[0].Summary)
	}
}

// TestServerUnknownExperiment: the 404 body carries the registry's
// did-you-mean error.
func TestServerUnknownExperiment(t *testing.T) {
	_, ts := testServer(t, Options{})
	_, resp := postJob(t, ts, JobRequest{Experiment: "intervl"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "intervl"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if !strings.Contains(string(body), `did you mean \"interval\"?`) {
		t.Fatalf("404 body lacks suggestion: %s", body)
	}
}

// TestServerBadConfig: strict decode surfaces as 400 at submission time.
func TestServerBadConfig(t *testing.T) {
	_, ts := testServer(t, Options{})
	_, resp := postJob(t, ts, JobRequest{
		Experiment: "bounds",
		Config:     json.RawMessage(`{"no_such_knob": true}`),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	_, resp = postJob(t, ts, JobRequest{
		Experiment: "bounds",
		Config:     json.RawMessage(`{"duration": -5}`),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("validation status %d, want 400", resp.StatusCode)
	}
	// An invalid embedded chaos plan is refused at submission, not failed
	// after a System is built.
	_, resp = postJob(t, ts, JobRequest{
		Experiment: "faultinjection",
		Config:     json.RawMessage(`{"chaos_plan": {"actions": [{"op": "no-such-op"}]}}`),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("chaos plan status %d, want 400", resp.StatusCode)
	}
	// A job cannot choose whether it forks: a "warm" field is unknown, like
	// any other.
	r, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment": "bounds", "warm": false}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("warm field status %d, want 400", r.StatusCode)
	}
}

// TestServerQueueFull: with no workers draining, the bounded queue rejects
// overflow with 503.
func TestServerQueueFull(t *testing.T) {
	s := New(Options{QueueDepth: 1}) // never Start()ed: nothing drains
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cfg := rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})
	_, resp := postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, JobRequest{Experiment: "bounds", Config: cfg})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d, want 503", resp.StatusCode)
	}
}

// TestServerCancelQueued: a queued job can be cancelled; its result answers
// 409.
func TestServerCancelQueued(t *testing.T) {
	s := New(Options{QueueDepth: 4}) // never Start()ed: job stays queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, _ := postJob(t, ts, JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	r2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(r2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got.State != JobCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
	r3, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusConflict {
		t.Fatalf("result status %d, want 409", r3.StatusCode)
	}
}

// TestServerExperimentListing: the registry listing serves every experiment
// with a decodable default config and its warm capability.
func TestServerExperimentListing(t *testing.T) {
	_, ts := testServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments?seed=9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Experiments []struct {
			Name          string          `json:"name"`
			Description   string          `json:"description"`
			Warm          bool            `json:"warm"`
			DefaultConfig json.RawMessage `json:"default_config"`
		} `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Experiments) != len(experiments.Names()) {
		t.Fatalf("%d experiments listed, want %d", len(out.Experiments), len(experiments.Names()))
	}
	warmCount := 0
	for _, e := range out.Experiments {
		exp, err := experiments.Lookup(e.Name)
		if err != nil {
			t.Fatalf("listed unknown experiment %q", e.Name)
		}
		if e.Description == "" {
			t.Fatalf("%s: empty description", e.Name)
		}
		// The listed default config must POST back cleanly.
		if _, err := exp.DecodeConfig(e.DefaultConfig); err != nil {
			t.Fatalf("%s: listed default config does not decode: %v", e.Name, err)
		}
		if e.Warm {
			warmCount++
		}
	}
	if warmCount != 6 {
		t.Fatalf("%d warm-capable experiments, want 6 (bounds, faultinjection, interval, domains, netchaos, wansites)", warmCount)
	}
}

// TestServerQueueFullConcurrentSubmits hammers a full queue from many
// goroutines: rejected submissions must not corrupt the job list (a former
// rollback race truncated the wrong order entry, leaving nil jobs that
// panicked GET /v1/jobs).
func TestServerQueueFullConcurrentSubmits(t *testing.T) {
	s := New(Options{QueueDepth: 2}) // never Start()ed: nothing drains
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := func() []byte {
		raw, err := json.Marshal(JobRequest{Experiment: "bounds",
			Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}()

	var wg sync.WaitGroup
	var accepted atomic.Int32
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				accepted.Add(1)
			case http.StatusServiceUnavailable:
			default:
				errs <- fmt.Errorf("unexpected submit status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("%d submissions accepted, want 2 (queue depth)", got)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 {
		t.Fatalf("%d jobs listed, want 2", len(out.Jobs))
	}
	for _, j := range out.Jobs {
		if j.State != JobQueued {
			t.Fatalf("job %s listed %s, want queued", j.ID, j.State)
		}
	}
}

// TestServerStopCancelsQueued: Stop marks jobs that never left the queue
// cancelled instead of stranding them "queued" forever.
func TestServerStopCancelsQueued(t *testing.T) {
	s := New(Options{QueueDepth: 4}) // never Start()ed: job stays queued
	j, _, err := s.submit(JobRequest{Experiment: "bounds",
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	st := j.status()
	if st.State != JobCancelled {
		t.Fatalf("queued job finished %s after Stop, want cancelled", st.State)
	}
	if !strings.Contains(st.Error, "shutdown") {
		t.Fatalf("queued job error %q does not mention shutdown", st.Error)
	}
}

// TestServerStopCancelsRunning: a job interrupted mid-run by Stop finishes
// cancelled (with a shutdown error), not failed.
func TestServerStopCancelsRunning(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	j, _, err := s.submit(JobRequest{Experiment: "bounds", Points: 32,
		Config: rawConfig(t, experiments.BoundsConfig{Seed: 1, Duration: 3 * time.Minute})})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.status().State == JobQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	st := j.status()
	if st.State != JobCancelled {
		t.Fatalf("running job finished %s after Stop (err %q), want cancelled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "shutdown") {
		t.Fatalf("running job error %q does not mention shutdown", st.Error)
	}
}
