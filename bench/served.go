package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"time"

	"gptpfta/internal/experiments"
	"gptpfta/internal/obs"
	"gptpfta/internal/serve"
)

// servedSize shapes the served workload.
type servedSize struct {
	setups int // servers started and warmed, for the set-up median
	shared int // job seeds that repeat and so hit the snapshot cache
	block  int // each block of this many requests has one fresh seed
	traced int // jobs in the traced phase
	job    chaosConfig
}

// pollInterval is how long the client waits between status polls. It is
// synthetic: scripts/serve_smoke.sh, the repository's one client, polls
// every 200 ms, which would round every job's latency up to a whole poll
// and hide any change to a job shorter than that. 2 ms resolves a job of
// about 150 ms to about 1%.
const pollInterval = 2 * time.Millisecond

// servedFull takes from scripts/serve_smoke.sh its job, the smoke netchaos
// config, and its client: one caller that submits a job, polls it to
// completion and reads the result before it submits the next. The server
// runs with cmd/served's defaults (2 workers, 8 cache entries). The seed
// mix is synthetic: the script repeats one seed, which after the first job
// only ever hits the snapshot cache, so jobSeeds adds a fresh seed to every
// block of requests to load the cache's miss and eviction path too.
var servedFull = servedSize{
	setups: 3, shared: 4, block: 4, traced: 24,
	job: chaosConfig{
		Duration:   270 * time.Second,
		Burst:      []float64{0.5},
		Partitions: []time.Duration{10 * time.Second},
		Parallel:   1,
	},
}

// jobSeeds pre-generates the request stream from the run seed: the shared
// seeds first, then n requests in blocks of sz.block, each block holding
// one never-repeated fresh seed at a random position and shared seeds
// elsewhere. Fresh seeds miss the snapshot cache and, once it is full,
// evict an entry. Fixing the mix per block, rather than drawing each
// request's kind, keeps the hit ratio, and with it the latency, from
// varying with the seed.
func jobSeeds(seed int64, sz servedSize, n int) (shared, requests []int64) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	draw := func() int64 {
		for {
			s := rng.Int63n(1<<31) + 1
			if !used[s] {
				used[s] = true
				return s
			}
		}
	}
	for i := 0; i < sz.shared; i++ {
		shared = append(shared, draw())
	}
	var fresh int
	for i := 0; i < n; i++ {
		if i%sz.block == 0 {
			fresh = i + rng.Intn(sz.block)
		}
		if i == fresh {
			requests = append(requests, draw())
		} else {
			requests = append(requests, shared[rng.Intn(len(shared))])
		}
	}
	return shared, requests
}

// servedEnv is one job server behind a loopback HTTP listener.
type servedEnv struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	config json.RawMessage // the netchaos config every request carries
}

func startServed(sz servedSize) *servedEnv {
	srv := serve.New(serve.Options{})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	return &servedEnv{srv: srv, ts: ts, client: ts.Client(), config: sz.job.raw()}
}

// stop closes the listener, then stops the server and waits for its
// workers.
func (e *servedEnv) stop() {
	e.ts.Close()
	e.srv.Stop()
}

// jobResult is what one job's client saw.
type jobResult struct {
	seed       int64
	latency    time.Duration // POST sent to result body read
	queue, run time.Duration // server-reported Started−Created, Finished−Started
	polls      int
	digest     string
	err        error
}

// drive is the closed-loop client: it takes the next request, runs it to
// completion and only then takes another, until take reports none left.
// take returns the request's job seed and the id its spans share.
func (e *servedEnv) drive(r *run, take func() (seed int64, req string, ok bool)) []jobResult {
	var out []jobResult
	for {
		seed, req, ok := take()
		if !ok {
			return out
		}
		res := e.job(r, req, seed)
		r.attempt(res.err)
		out = append(out, res)
	}
}

// job submits one netchaos job, polls its status until it is terminal and
// reads its result. All its spans share the request id.
func (e *servedEnv) job(r *run, req string, seed int64) jobResult {
	res := jobResult{seed: seed}
	root := r.spans.begin("served.job", 0, req)
	body := encodeJSON(map[string]any{"experiment": "netchaos", "config": e.config, "seed": seed})
	// The config's own seed would win over the top-level one; the job
	// config carries none, so the request seed applies.
	var st serve.JobStatus
	if res.err = e.call(r, "served.post", root, req, "POST", "/v1/jobs", body, &st); res.err != nil {
		r.spans.end(root)
		return res
	}
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		res.polls++
		if res.err = e.call(r, "served.poll", root, req, "GET", "/v1/jobs/"+st.ID, nil, &st); res.err != nil {
			r.spans.end(root)
			return res
		}
	}
	if st.State != serve.JobDone {
		res.err = fmt.Errorf("job %s (seed %d) ended %s: %s", st.ID, seed, st.State, st.Error)
		r.spans.end(root)
		return res
	}
	var out struct {
		Results []experiments.WireResult `json:"results"`
	}
	res.err = e.call(r, "served.result", root, req, "GET", "/v1/jobs/"+st.ID+"/result", nil, &out)
	res.latency = r.spans.end(root)
	if res.err != nil {
		return res
	}
	if len(out.Results) != 1 || out.Results[0].Schema != experiments.ResultSchemaVersion {
		res.err = fmt.Errorf("job %s: want one schema-%d envelope, got %d", st.ID, experiments.ResultSchemaVersion, len(out.Results))
		return res
	}
	res.digest = resultDigest(out.Results[0].Summary, out.Results[0].Rows)
	res.queue = st.Started.Sub(st.Created)
	res.run = st.Finished.Sub(*st.Started)
	r.spans.add("serve.queue", st.Created, *st.Started, root, req)
	r.spans.add("serve.run", *st.Started, *st.Finished, root, req)
	return res
}

// call makes one HTTP request in a span and decodes the JSON response into
// out. Any status outside 2xx, a full queue's 503 included, is an error.
func (e *servedEnv) call(r *run, name string, parent int, req, method, path string, body []byte, out any) error {
	id := r.spans.begin(name, parent, req)
	defer r.spans.end(id)
	hreq, err := http.NewRequest(method, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// runServed starts and warms the server sz.setups times (the set-up: a
// long-running server's users find the shared seeds' snapshots cached),
// then drives the pre-generated request stream through the last one until
// the time budget is spent.
func runServed(r *run, sz servedSize, want *golden) error {
	shared, requests := jobSeeds(r.seed, sz, 4096)
	var setups []float64
	var env *servedEnv
	var all []jobResult
	for i := 0; i < sz.setups; i++ {
		if env != nil {
			env.stop()
		}
		debug.FreeOSMemory()
		id := r.spans.begin("setup", 0, "")
		env = startServed(sz)
		next := 0
		all = append(all, env.drive(r, func() (int64, string, bool) {
			if next == len(shared) {
				return 0, "", false
			}
			next++
			return shared[next-1], fmt.Sprintf("warm%d-%d", i, next), true
		})...)
		setups = append(setups, r.spans.end(id).Seconds())
	}
	defer env.stop()
	r.putMedian("setup_s", setups)

	before := env.srv.Metrics().Snapshot()
	start, cpu0 := time.Now(), cpuTime()
	// take hands out the request stream in order until stop says so.
	next := 0
	take := func(stop func() bool) func() (int64, string, bool) {
		return func() (int64, string, bool) {
			if next == len(requests) || stop() {
				return 0, "", false
			}
			next++
			return requests[next-1], fmt.Sprintf("req-%d", next-1), true
		}
	}
	timed := env.drive(r, take(func() bool { return next > 0 && !r.timeLeft() }))
	wall, cpu := time.Since(start), cpuTime()-cpu0
	after := env.srv.Metrics().Snapshot()
	all = append(all, timed...)
	putServed(r, sz, timed, wall, cpu, before, after)

	if r.profile != nil {
		var traced []jobResult
		var tracedWall time.Duration
		if err := r.traced(func() error {
			t, first := time.Now(), next
			traced = env.drive(r, take(func() bool { return next-first == sz.traced }))
			tracedWall = time.Since(t)
			return nil
		}); err != nil {
			return err
		}
		all = append(all, traced...)
		if err := r.putProfile(0, tracedWall.Seconds()/float64(len(traced)), wall.Seconds()/float64(len(timed))); err != nil {
			return err
		}
	}
	checkServed(r, all, shared, want)
	return nil
}

// putServed reports the timed phase: client-side latency and throughput,
// the server's own queue and run intervals, and the snapshot cache's
// counters over the phase.
func putServed(r *run, sz servedSize, jobs []jobResult, wall, cpu time.Duration, before, after []obs.Metric) {
	var lat, queue, runs, overhead, polls []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		lat = append(lat, j.latency.Seconds())
		queue = append(queue, j.queue.Seconds())
		runs = append(runs, j.run.Seconds())
		overhead = append(overhead, (j.latency - j.queue - j.run).Seconds())
		polls = append(polls, float64(j.polls))
	}
	delta := func(name string) float64 { return total(after, name) - total(before, name) }
	hits, misses := delta("snapcache_hits"), delta("snapcache_misses")

	r.put("sim_rate", sz.job.simSeconds()*float64(len(lat))/wall.Seconds(), nil)
	r.putMedian("op_p50_s", lat)
	r.put("core.cpu_util", cpu.Seconds()/wall.Seconds(), nil)
	r.putTail("serve.job_p90_s", lat)
	r.putMedian("serve.queue_wait_p50_s", queue)
	r.putTail("serve.queue_wait_p90_s", queue)
	r.putMedian("serve.run_p50_s", runs)
	r.putTail("serve.run_p90_s", runs)
	r.putMedian("serve.client_overhead_p50_s", overhead)
	r.put("serve.cache_hit_ratio", ratio(hits, hits+misses), nil)
	r.put("serve.evictions_per_job", ratio(delta("snapcache_evictions"), float64(len(lat))), nil)
	r.put("serve.polls_per_job", ratio(sumOf(polls), float64(len(polls))), polls)
}

// checkServed checks every job of the run, warm-up and traced ones
// included: each must end done with one schema-1 envelope, identical
// requests must return identical Summary and Rows, and for the golden seed
// the shared seeds' results must match the pinned digests.
func checkServed(r *run, jobs []jobResult, shared []int64, want *golden) {
	var firstErr error
	failed := 0
	digests := map[int64]map[string]bool{}
	for _, j := range jobs {
		if j.err != nil {
			failed++
			if firstErr == nil {
				firstErr = j.err
			}
			continue
		}
		if digests[j.seed] == nil {
			digests[j.seed] = map[string]bool{}
		}
		digests[j.seed][j.digest] = true
	}
	detail := fmt.Sprintf("%d of %d jobs done with a schema-1 envelope", len(jobs)-failed, len(jobs))
	if firstErr != nil {
		detail += "; first error: " + firstErr.Error()
	}
	r.check("served.done", failed == 0, "%s", detail)
	same := true
	for _, d := range digests {
		same = same && len(d) == 1
	}
	r.check("served.repeatable", same, "%d distinct seeds, each with one result digest: %v", len(digests), same)
	if want == nil {
		return
	}
	ok := true
	got := map[string][]string{}
	for _, s := range shared {
		key := strconv.FormatInt(s, 10)
		ok = ok && len(digests[s]) == 1 && digests[s][want.Served.SharedSHA256[key]]
		for d := range digests[s] {
			got[key] = append(got[key], d)
		}
	}
	r.check("served.golden", ok, "shared seeds' digests %v", got)
}
