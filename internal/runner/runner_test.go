package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// campaign builds n runs whose values depend only on the submitted index —
// the stand-in for independent seeded simulations.
func campaign(n int, delay func(i int) time.Duration) []Run {
	runs := make([]Run, n)
	for i := 0; i < n; i++ {
		i := i
		runs[i] = Run{
			Name: fmt.Sprintf("run/%d", i),
			Do: func(context.Context) (any, error) {
				if delay != nil {
					time.Sleep(delay(i))
				}
				return i * i, nil
			},
		}
	}
	return runs
}

// TestDeterministicOrdering is the pool's core guarantee: the aggregated
// outcome slice is identical for any worker count, even when completion
// order is scrambled by run-length skew.
func TestDeterministicOrdering(t *testing.T) {
	// Early runs are the slowest, so with >1 worker the later runs finish
	// first and ordering by completion would be reversed.
	delay := func(i int) time.Duration { return time.Duration(16-i) * time.Millisecond }
	sequential := New(1).Execute(context.Background(), campaign(16, delay))
	parallel := New(8).Execute(context.Background(), campaign(16, delay))

	if len(sequential) != 16 || len(parallel) != 16 {
		t.Fatalf("outcome counts: %d vs %d", len(sequential), len(parallel))
	}
	for i := range sequential {
		s, p := sequential[i], parallel[i]
		if s.Index != i || p.Index != i {
			t.Fatalf("outcome %d carries indices %d / %d", i, s.Index, p.Index)
		}
		if s.Name != p.Name || s.Value != p.Value || s.Value != i*i {
			t.Fatalf("outcome %d diverges: sequential %v=%v, parallel %v=%v",
				i, s.Name, s.Value, p.Name, p.Value)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("outcome %d failed: %v / %v", i, s.Err, p.Err)
		}
		if s.Wall <= 0 || p.Wall <= 0 {
			t.Fatalf("outcome %d missing wall-clock timing", i)
		}
	}
}

// TestPanicIsolation: a panicking run must be reported as one failed
// outcome, with the campaign's other runs unaffected.
func TestPanicIsolation(t *testing.T) {
	runs := campaign(8, nil)
	runs[3] = Run{Name: "run/3", Do: func(context.Context) (any, error) {
		panic("seed 3 exploded")
	}}
	outcomes := New(4).Execute(context.Background(), runs)
	for i, o := range outcomes {
		if i == 3 {
			if !o.Panicked || o.Err == nil {
				t.Fatalf("run 3 not reported as panicked: %+v", o)
			}
			if !strings.Contains(o.Err.Error(), "seed 3 exploded") {
				t.Fatalf("panic value lost: %v", o.Err)
			}
			if !strings.Contains(o.Err.Error(), "runner_test.go") {
				t.Fatalf("stack trace lost: %v", o.Err)
			}
			continue
		}
		if o.Err != nil || o.Value != i*i {
			t.Fatalf("healthy run %d disturbed: %+v", i, o)
		}
	}
	if _, err := Values[int](outcomes); err == nil || !strings.Contains(err.Error(), `run "run/3"`) {
		t.Fatalf("Values error = %v", err)
	}
}

// TestCancellation: cancelling the campaign context stops dispatch; runs
// that never started are Skipped with the context error, and runs already
// in flight complete normally.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	runs := make([]Run, 16)
	for i := range runs {
		i := i
		runs[i] = Run{
			Name: fmt.Sprintf("run/%d", i),
			Do: func(ctx context.Context) (any, error) {
				started.Add(1)
				if i == 0 {
					cancel() // the first run aborts the campaign
					return i, nil
				}
				<-ctx.Done() // in-flight runs see the cancellation
				return i, nil
			},
		}
	}
	outcomes := New(2).Execute(ctx, runs)

	if outcomes[0].Err != nil || outcomes[0].Value != 0 {
		t.Fatalf("first run should have completed: %+v", outcomes[0])
	}
	var skipped int
	for _, o := range outcomes {
		if o.Skipped {
			skipped++
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("skipped run %d carries %v, want context.Canceled", o.Index, o.Err)
			}
			if o.Value != nil || o.Wall != 0 {
				t.Fatalf("skipped run %d has execution artefacts: %+v", o.Index, o)
			}
		}
	}
	// With 2 workers at most a handful of runs can be in flight or already
	// handed over when the cancellation lands; the bulk must be skipped.
	if skipped < len(runs)-4 {
		t.Fatalf("only %d/%d runs skipped after cancellation (started %d)",
			skipped, len(runs), started.Load())
	}
	if int(started.Load())+skipped != len(runs) {
		t.Fatalf("runs unaccounted for: started %d + skipped %d != %d",
			started.Load(), skipped, len(runs))
	}
}

// TestPreCancelled: an already-cancelled context executes nothing.
func TestPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes := New(4).Execute(ctx, campaign(6, nil))
	for _, o := range outcomes {
		if !o.Skipped || !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("run %d executed under a cancelled context: %+v", o.Index, o)
		}
	}
}

func TestRunErrorsDoNotAbortCampaign(t *testing.T) {
	boom := errors.New("boom")
	runs := campaign(5, nil)
	runs[1] = Run{Name: "run/1", Do: func(context.Context) (any, error) { return nil, boom }}
	outcomes := New(3).Execute(context.Background(), runs)
	if !errors.Is(outcomes[1].Err, boom) || outcomes[1].Panicked || outcomes[1].Skipped {
		t.Fatalf("outcome 1: %+v", outcomes[1])
	}
	for _, i := range []int{0, 2, 3, 4} {
		if outcomes[i].Err != nil {
			t.Fatalf("run %d affected by sibling failure: %v", i, outcomes[i].Err)
		}
	}
}

func TestValues(t *testing.T) {
	outcomes := New(4).Execute(context.Background(), campaign(6, nil))
	vals, err := Values[int](outcomes)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != i*i {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	if _, err := Values[string](outcomes); err == nil {
		t.Fatal("type mismatch undetected")
	}
}

func TestWorkerDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) must fall back to GOMAXPROCS")
	}
	if New(7).Workers() != 7 {
		t.Fatal("explicit worker count ignored")
	}
	// More workers than runs must not deadlock or drop outcomes.
	outcomes := New(64).Execute(context.Background(), campaign(3, nil))
	if _, err := Values[int](outcomes); len(outcomes) != 3 || err != nil {
		t.Fatalf("outcomes: %+v", outcomes)
	}
	// An empty campaign is a no-op.
	if got := New(4).Execute(context.Background(), nil); len(got) != 0 {
		t.Fatalf("empty campaign produced %d outcomes", len(got))
	}
}
