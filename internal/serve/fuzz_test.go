package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadState holds the -state-dir loader to its fail-closed contract:
// arbitrary bytes in a job-*.json file never panic the server, and each file
// either restores one terminal job or is counted on served_state_errors. A
// restored job must also answer the status, listing, result and metrics
// endpoints without panicking.
func FuzzLoadState(f *testing.F) {
	f.Add([]byte(`{"status":{"id":"job-1","experiment":"bounds","seed":3,"points":1,"state":"failed","error":"boom","created":"2026-01-02T03:04:05Z"}}`))
	f.Add([]byte(`{"status":{"id":"job-1","state":"done","created":"2026-01-02T03:04:05Z","started":"2026-01-02T03:04:06Z","finished":"2026-01-02T03:04:07Z"},"results":[{"schema":1}]}`))
	f.Add([]byte(`{"status":{"id":"job-1","state":"running"}}`))
	f.Add([]byte(`{"status":{"id":"job-2","state":"cancelled"}}`))
	f.Add([]byte(`{"status":null,"results":[null]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(Options{StateDir: dir})
		defer s.Stop()
		loaded := counterValue(s.Metrics(), "served_state_loaded")
		errs := counterValue(s.Metrics(), "served_state_errors")
		j, ok := s.jobs["job-1"]
		switch {
		case loaded == 1 && errs == 0:
			if !ok || len(s.jobs) != 1 || !j.status().State.Terminal() {
				t.Fatalf("loaded a job but restored %d jobs (job-1 present %v)", len(s.jobs), ok)
			}
		case loaded == 0 && errs == 1:
			if len(s.jobs) != 0 {
				t.Fatalf("rejected file but restored %d jobs", len(s.jobs))
			}
		default:
			t.Fatalf("served_state_loaded = %v, served_state_errors = %v; want exactly one of them 1", loaded, errs)
		}
		h := s.Handler()
		for _, path := range []string{"/v1/jobs", "/v1/jobs/job-1", "/v1/jobs/job-1/result", "/v1/jobs/job-1/metrics"} {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
	})
}
